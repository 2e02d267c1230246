package results

import (
	"encoding/json"
	"math"
	"sort"
)

// Delta is one matched metric's change between two tables.
type Delta struct {
	Row Row `json:"row"` // the key; Value holds the new observation
	// Old and New are the two observations.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// Diff is New - Old.
	Diff float64 `json:"diff"`
	// Rel is Diff / |Old| — ±Inf when Old is 0 but New is not, 0 when
	// both are 0. In JSON, infinite Rel is encoded as the string "+inf"
	// or "-inf" (JSON numbers cannot carry infinities, and a zero-
	// baseline change is exactly when a machine-readable diff matters).
	Rel float64 `json:"rel"`
}

// deltaJSON is Delta's wire shape: Rel widens to any so infinities
// survive encoding as strings.
type deltaJSON struct {
	Row  Row     `json:"row"`
	Old  float64 `json:"old"`
	New  float64 `json:"new"`
	Diff float64 `json:"diff"`
	Rel  any     `json:"rel"`
}

// MarshalJSON implements json.Marshaler; see the Rel field comment.
func (d Delta) MarshalJSON() ([]byte, error) {
	out := deltaJSON{Row: d.Row, Old: d.Old, New: d.New, Diff: d.Diff, Rel: d.Rel}
	if math.IsInf(d.Rel, 1) {
		out.Rel = "+inf"
	} else if math.IsInf(d.Rel, -1) {
		out.Rel = "-inf"
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, the inverse of MarshalJSON.
func (d *Delta) UnmarshalJSON(b []byte) error {
	var in deltaJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	d.Row, d.Old, d.New, d.Diff = in.Row, in.Old, in.New, in.Diff
	switch rel := in.Rel.(type) {
	case string:
		if rel == "-inf" {
			d.Rel = math.Inf(-1)
		} else {
			d.Rel = math.Inf(1)
		}
	case float64:
		d.Rel = rel
	}
	return nil
}

// DiffResult pairs two tables metric by metric.
type DiffResult struct {
	// Deltas holds every key present in both tables, in canonical key
	// order (including unchanged metrics, whose Diff is 0).
	Deltas []Delta `json:"deltas"`
	// OnlyOld and OnlyNew hold rows whose key appears in just one table
	// (a scenario added, removed, or re-parameterized between runs).
	OnlyOld []Row `json:"only_old,omitempty"`
	OnlyNew []Row `json:"only_new,omitempty"`
}

// Diff matches old against new by row key. Of duplicate keys within
// one table, Diff keeps the first occurrence and ignores the rest.
func Diff(old, new Table) DiffResult {
	oldBy := make(map[string]Row, len(old.Rows))
	for _, r := range old.Rows {
		if _, dup := oldBy[r.Key()]; !dup {
			oldBy[r.Key()] = r
		}
	}
	var res DiffResult
	seenNew := make(map[string]bool, len(new.Rows))
	for _, r := range new.Rows {
		k := r.Key()
		if seenNew[k] {
			continue
		}
		seenNew[k] = true
		o, ok := oldBy[k]
		if !ok {
			res.OnlyNew = append(res.OnlyNew, r)
			continue
		}
		delete(oldBy, k)
		d := Delta{Row: r, Old: o.Value, New: r.Value, Diff: r.Value - o.Value}
		switch {
		case d.Diff == 0:
			d.Rel = 0
		case o.Value != 0:
			d.Rel = d.Diff / math.Abs(o.Value)
		default:
			d.Rel = math.Inf(1)
			if d.Diff < 0 {
				d.Rel = math.Inf(-1)
			}
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, r := range oldBy {
		res.OnlyOld = append(res.OnlyOld, r)
	}
	sort.Slice(res.Deltas, func(i, j int) bool { return res.Deltas[i].Row.Key() < res.Deltas[j].Row.Key() })
	sort.Slice(res.OnlyOld, func(i, j int) bool { return res.OnlyOld[i].Key() < res.OnlyOld[j].Key() })
	sort.Slice(res.OnlyNew, func(i, j int) bool { return res.OnlyNew[i].Key() < res.OnlyNew[j].Key() })
	return res
}

// Changed returns the deltas whose value actually moved.
func (d DiffResult) Changed() []Delta {
	var out []Delta
	for _, x := range d.Deltas {
		if x.Diff != 0 {
			out = append(out, x)
		}
	}
	return out
}

// Violations returns the deltas whose relative change exceeds threshold
// in magnitude (a metric moving away from a zero baseline always
// violates any finite threshold: Rel is ±Inf there). threshold 0 means
// any change at all is a violation — the strict gate for runs that
// should be deterministic replicas.
func (d DiffResult) Violations(threshold float64) []Delta {
	var out []Delta
	for _, x := range d.Deltas {
		if x.Diff != 0 && math.Abs(x.Rel) > threshold {
			out = append(out, x)
		}
	}
	return out
}
