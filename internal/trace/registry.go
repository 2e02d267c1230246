// Runtime workload registry: spec-driven workloads register a Synth
// here under their content-hashed name, and everything that resolves
// workloads by name (tracestore.PresetGenColumns/PresetProfile, and
// through them every backend, the disk/mmap tiers, and trace-major
// grouping) consults the registry before the static preset table. Registration
// is process-local; coordinators forward spec documents to every fleet
// worker, exec and remote alike, in the welcome frame, so both sides
// resolve the same names to the same byte streams.

package trace

import (
	"fmt"
	"sync"
)

// Synth is a dynamically registered workload generator. Both functions
// must be deterministic pure functions of (registered name, records):
// caches regenerate entries under pressure and across processes, and
// replay results must not depend on which copy a cell observed.
type Synth struct {
	// Profile derives the workload's metadata profile (name, record
	// count, process count, token policy) without generating records.
	Profile func(records int) (Profile, error)
	// GenerateColumns materializes the trace at the given record budget
	// in the columnar form caches store.
	GenerateColumns func(records int) (*Columns, error)
}

var (
	synthMu sync.RWMutex
	synths  = map[string]Synth{}
)

// RegisterSynth installs a synth under name. Re-registering an existing
// name is allowed and replaces the entry: spec workload names embed a
// content hash, so a name collision implies an identical generator.
// It returns an error if the synth is incomplete or the name would
// shadow a static preset.
func RegisterSynth(name string, s Synth) error {
	if name == "" {
		return fmt.Errorf("trace: RegisterSynth with empty name")
	}
	if s.Profile == nil || s.GenerateColumns == nil {
		return fmt.Errorf("trace: RegisterSynth %q: nil Profile or GenerateColumns", name)
	}
	if _, err := Preset(name); err == nil {
		return fmt.Errorf("trace: RegisterSynth %q would shadow a preset", name)
	}
	synthMu.Lock()
	defer synthMu.Unlock()
	synths[name] = s
	return nil
}

// LookupSynth returns the registered synth for name, if any.
func LookupSynth(name string) (Synth, bool) {
	synthMu.RLock()
	defer synthMu.RUnlock()
	s, ok := synths[name]
	return s, ok
}
