package results

import (
	"sort"
	"strconv"
	"strings"
)

// Row is one metric observation: which scenario produced it, which cell
// of the scenario's space it describes, the metric's name and unit, and
// the value. Rows are the atoms diffing and merging operate on; the
// (Scenario, Cell, Metric, Unit) tuple is a row's identity.
type Row struct {
	// Scenario names the registered scenario the metric came from.
	Scenario string `json:"scenario,omitempty"`
	// Cell labels the point in the scenario's space, conventionally
	// comma-joined key=value pairs from Labels (empty for aggregates over
	// the whole scenario).
	Cell string `json:"cell,omitempty"`
	// Metric names the measured quantity (e.g. "norm_oae", "capacity").
	Metric string `json:"metric"`
	// Unit qualifies Value ("" for dimensionless ratios and counts).
	Unit string `json:"unit,omitempty"`
	// Value is the observation.
	Value float64 `json:"value"`
}

// Key is a row's identity — everything except the value.
func (r Row) Key() string {
	return r.Scenario + "\x00" + r.Cell + "\x00" + r.Metric + "\x00" + r.Unit
}

// Table is an ordered collection of metric rows. The zero value is an
// empty table ready for Add.
type Table struct {
	Rows []Row `json:"rows"`
}

// Add appends one (cell, metric, value) row.
func (t *Table) Add(cell, metric string, value float64) {
	t.Rows = append(t.Rows, Row{Cell: cell, Metric: metric, Value: value})
}

// AddUnit appends one row carrying a unit.
func (t *Table) AddUnit(cell, metric, unit string, value float64) {
	t.Rows = append(t.Rows, Row{Cell: cell, Metric: metric, Unit: unit, Value: value})
}

// Sort orders rows canonically by (scenario, cell, metric, unit) so a
// table's serialized form is deterministic regardless of build order.
// Ties (duplicate keys) keep their insertion order.
func (t *Table) Sort() {
	sort.SliceStable(t.Rows, func(i, j int) bool {
		return t.Rows[i].Key() < t.Rows[j].Key()
	})
}

// WithScenario returns a copy of the table with every row's Scenario
// field set, sorted canonically. Tabler implementations emit rows
// without the scenario name (they don't know what they were registered
// as); the caller that does know stamps it here.
func (t Table) WithScenario(scenario string) Table {
	out := Table{Rows: make([]Row, len(t.Rows))}
	copy(out.Rows, t.Rows)
	for i := range out.Rows {
		out.Rows[i].Scenario = scenario
	}
	out.Sort()
	return out
}

// Tabler is implemented by scenario aggregates that can flatten into a
// metrics table. Table rows carry no Scenario (see Table.WithScenario).
type Tabler interface {
	Table() Table
}

// Labels joins key=value pairs into the canonical Cell string:
// "workload=505.mcf,model=STBPU". Pairs must come in (key, value)
// order; it panics on an odd count so malformed calls surface in tests.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("results: Labels requires key/value pairs")
	}
	var sb strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteByte('=')
		sb.WriteString(kv[i+1])
	}
	return sb.String()
}

// Ftoa renders a float label component in the shortest exact form, for
// stable Cell strings built from sweep axes (r values, trace lengths).
func Ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Itoa renders an int label component.
func Itoa(v int) string { return strconv.Itoa(v) }

// Bool01 maps a boolean outcome onto the 0/1 metric scale, so pass/fail
// cells (attack succeeded, claim holds) diff like any other metric.
func Bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
