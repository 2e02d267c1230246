package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// sample is one stbpu-suite invocation as the host saw it.
type sample struct {
	wall, cpu, setup time.Duration
	peakRSSMB        float64
	probe            time.Duration // host-speed probe just before the invocation
}

// invoke runs bin with args to completion as its own process group and
// measures it: wall time from fork to reaped exit, user+sys time and
// peak RSS from wait4 (which cover exec workers the process reaped), and
// set-up time, the start of the first cell. stbpu-suite -v prints one
// "cell ..." line per completed cell ending in the cell's elapsed time,
// so the first cell started at that line's arrival minus its elapsed.
// A run that outlives timeout is killed with its whole group.
func invoke(ctx context.Context, bin string, args []string, timeout time.Duration) (sample, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return sample{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return sample{}, err
	}
	var (
		setup time.Duration
		seen  bool
		last  []string // stderr tail for the failure message
	)
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !seen && strings.HasPrefix(line, "cell ") {
			if d, ok := cellElapsed(line); ok {
				setup, seen = time.Since(start)-d, true
			}
		}
		if last = append(last, line); len(last) > 8 {
			last = last[1:]
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	r := sample{wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			r.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		return r, fmt.Errorf("timed out after %v", timeout)
	case waitErr != nil:
		return r, fmt.Errorf("%v: %s", waitErr, strings.Join(last, " | "))
	case scanErr != nil:
		return r, fmt.Errorf("reading stderr: %w", scanErr)
	case !seen:
		return r, errors.New("no cell completed")
	}
	r.setup = setup
	return r, nil
}

// cellElapsed parses the duration that ends a -v cell line.
func cellElapsed(line string) (time.Duration, bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, false
	}
	d, err := time.ParseDuration(line[i+1:])
	return d, err == nil
}
