package main

import (
	"sync"
	"time"
)

// The host-speed probe. On the shared 2-vCPU reference host, per-core
// speed drifts by 20-35% over minutes, and user, system and wall time
// all move with it, so raw timings of one commit spread 20-35% from run
// to run. Before every timed rep the benchmark times a fixed piece of
// work that depends on nothing in the repository, and scales the rep's
// timings by probeRef/probe: that removes the drift the rep and the
// probe share and leaves a spread of 3-6%. The probe does random
// read-modify-writes with a data-dependent branch on a 256 KiB table,
// the size of the predictor tables the suite simulates, on one
// goroutine per cell slot. (Of the kernels tried, an ALU-only loop and
// a 4 MiB table tracked the drift less well.)

// probeRef is the probe's median time on the reference host (2 vCPUs of
// a 2.1 GHz Xeon), so normalized timings read as reference-host seconds.
const probeRef = 55 * time.Millisecond

const (
	probeEntries = 1 << 16 // 256 KiB of uint32
	probeSteps   = 4_000_000
)

var (
	probeTables [slots][]uint32
	probeSink   uint32
)

// hostProbe runs the probe and returns its wall time.
func hostProbe() time.Duration {
	for i := range probeTables {
		if probeTables[i] == nil {
			probeTables[i] = make([]uint32, probeEntries)
		}
		clear(probeTables[i]) // identical work on every call
	}
	var wg sync.WaitGroup
	var sums [slots]uint32
	start := time.Now()
	for i := range probeTables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = walk(probeTables[i], uint64(i+1)*0x9e3779b97f4a7c15, probeSteps)
		}(i)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		probeSink += s // keeps the walks from being optimized away
	}
	return d
}

// walk does steps random read-modify-writes on t (len a power of two).
func walk(t []uint32, x uint64, steps int) uint32 {
	mask := uint64(len(t) - 1)
	var acc uint32
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := t[j]
		if v&1 == 0 {
			acc += v ^ uint32(x)
		} else {
			acc -= v >> 3
		}
		t[j] = v + uint32(i)
	}
	return acc
}
