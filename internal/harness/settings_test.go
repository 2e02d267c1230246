package harness

// The one-configuration invariant: a pool built from Settings reports
// exactly those Settings back, and a fleet installed in it welcomes
// every worker with them — the worker's only source of run settings.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// settingsSpecDoc is a one-phase workload spec for the settings tests.
const settingsSpecDoc = `{"name":"settings","tenants":[{"name":"web","preset":"apache2_prefork_c64"}],` +
	`"phases":[{"name":"only","records":2000,"switch":{"model":"geometric","mean":500}}]}`

// offDefaults is a Settings with every field away from its zero value
// and from the suite's defaults.
func offDefaults(t *testing.T) Settings {
	dir := t.TempDir()
	return Settings{
		TraceDir:      filepath.Join(dir, "traces"),
		TraceMajor:    false,
		TraceMmap:     true,
		Snapshots:     false,
		SnapDir:       filepath.Join(dir, "snaps"),
		WorkloadSpecs: []string{settingsSpecDoc},
	}
}

// TestSettingsPoolReportsItsSettings: the pool reads its settings back
// from where they live — its toggles, its stores' tiers and the specs it
// registered — and they equal the Settings it was built from.
func TestSettingsPoolReportsItsSettings(t *testing.T) {
	want := offDefaults(t)
	pool, err := want.NewPool(1, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Settings(); !reflect.DeepEqual(got, want) {
		t.Errorf("pool settings = %+v, want %+v", got, want)
	}
	if pool.TraceMajor() || pool.SnapshotsOn() || !pool.Traces().Mapped() {
		t.Errorf("toggles: trace-major %v, snapshots %v, mapped %v", pool.TraceMajor(), pool.SnapshotsOn(), pool.Traces().Mapped())
	}
	if _, err := (Settings{WorkloadSpecs: []string{"{"}}).NewPool(1, 5, 0, 0); err == nil {
		t.Error("a malformed spec document built a pool")
	}
}

// TestFleetWelcomesWithPoolSettings: a scripted worker admitted by a
// RemoteBackend installed in that pool receives exactly its Settings.
func TestFleetWelcomesWithPoolSettings(t *testing.T) {
	want := offDefaults(t)
	pool, err := want.NewPool(1, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, welcome := dialScriptedWorker(t, startRemote(t, pool, &RemoteBackend{}), "settings")
	if welcome.Proto != protoVersion || welcome.HeartbeatMS <= 0 {
		t.Errorf("welcome proto %d, heartbeat %d ms", welcome.Proto, welcome.HeartbeatMS)
	}
	if !reflect.DeepEqual(welcome.Settings, want) {
		t.Errorf("welcome settings = %+v, want %+v", welcome.Settings, want)
	}
}

// TestFleetOutsideAPoolRefusesWorkers: a fleet no pool has installed
// has no settings to welcome a worker with, so a TCP fleet refuses to
// start and an exec fleet spawns no worker.
func TestFleetOutsideAPoolRefusesWorkers(t *testing.T) {
	rb := &RemoteBackend{}
	defer rb.Close()
	if addr, err := rb.Start(); !errors.Is(err, errNoPool) {
		t.Errorf("Start outside a pool = %v, %v; want the no-pool refusal", addr, err)
	}
	eb := &ExecBackend{Command: []string{filepath.Join(t.TempDir(), "no-such-worker")}}
	defer eb.Close()
	specs := []CellSpec{{Scenario: "_exec-wire", Scope: "_exec-wire", Params: Params{Trials: 1}}}
	if _, err := eb.Run(context.Background(), specs); !errors.Is(err, errNoPool) {
		t.Errorf("exec Run outside a pool = %v; want the no-pool refusal", err)
	}
}
