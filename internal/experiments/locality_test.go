package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"stbpu/internal/harness"
	"stbpu/internal/trace"
)

// errSpecsRecorded stops a scenario once its specs are captured.
var errSpecsRecorded = errors.New("specs recorded")

// specRecorder is a Backend that records the specs RunAll hands it and
// executes none of them.
type specRecorder struct{ specs []harness.CellSpec }

func (r *specRecorder) Name() string { return "spec-recorder" }
func (r *specRecorder) Close() error { return nil }
func (r *specRecorder) Run(_ context.Context, specs []harness.CellSpec) ([]harness.CellResult, error) {
	r.specs = append(r.specs, specs...)
	return nil, errSpecsRecorded
}

// TestCPUFiguresLabelLocality: every Fig. 4 cell carries its workload's
// trace key and every Fig. 5 and Fig. 6 cell its SMT pair's key, the
// same key in both figures, so wire coordinators keep the cells that
// share a timeline or baseline together.
func TestCPUFiguresLabelLocality(t *testing.T) {
	s := Scale{Records: 20_000}
	specsOf := func(scenario string) []harness.CellSpec {
		t.Helper()
		rec := &specRecorder{}
		pool := harness.NewPool(1, 1)
		pool.SetBackend(rec)
		if _, err := runScenario[any](pool, scenario, s.Params()); !errors.Is(err, errSpecsRecorded) {
			t.Fatalf("scenario returned %v, want the recorder's stop", err)
		}
		return rec.specs
	}
	fig4, fig5, fig6 := specsOf("fig4"), specsOf("fig5"), specsOf("fig6")

	names, d := trace.SPEC18(), len(Fig4Dirs())
	if len(fig4) != len(names)*d {
		t.Fatalf("fig4 mapped %d cells, want %d", len(fig4), len(names)*d)
	}
	for _, c := range fig4 {
		if want := harness.Locality(names[c.Shard/d], s.Records); c.Locality != want {
			t.Errorf("fig4 shard %d: locality %q, want %q", c.Shard, c.Locality, want)
		}
	}

	pairKey := map[[2]string]string{}
	pairs := trace.SMTPairs()
	if len(fig5) != len(pairs)*d {
		t.Fatalf("fig5 mapped %d cells, want %d", len(fig5), len(pairs)*d)
	}
	for _, c := range fig5 {
		p := pairs[c.Shard/d]
		if want := harness.PairLocality(p[0], p[1], s.Records); c.Locality != want {
			t.Errorf("fig5 shard %d: locality %q, want %q", c.Shard, c.Locality, want)
		}
		pairKey[p] = c.Locality
	}

	pairs6 := trace.SMTPairsExtended()
	np, shared := len(pairs6), 0
	if len(fig6) != len(DefaultFig6Sweep())*np {
		t.Fatalf("fig6 mapped %d cells, want %d", len(fig6), len(DefaultFig6Sweep())*np)
	}
	for _, c := range fig6 {
		p := pairs6[c.Shard%np]
		if want := harness.PairLocality(p[0], p[1], s.Records); c.Locality != want {
			t.Errorf("fig6 shard %d: locality %q, want %q", c.Shard, c.Locality, want)
		}
		if k, ok := pairKey[p]; ok {
			shared++
			if k != c.Locality {
				t.Errorf("pair %v: fig5 key %q, fig6 key %q", p, k, c.Locality)
			}
		}
	}
	if want := len(pairs) * len(DefaultFig6Sweep()); shared != want {
		t.Errorf("%d fig6 cells replay a fig5 pair, want %d", shared, want)
	}
}

// TestScenariosMapTheirDeclaredSpace: every spec RunAll hands the
// backend carries the address a fleet worker builds its cell from — the
// scenario's name and merged params, its Space's scope, a dense shard
// and the shard's Group key. A scenario whose Space is empty maps
// nothing.
func TestScenariosMapTheirDeclaredSpace(t *testing.T) {
	quick := QuickScale().Params()
	for _, s := range harness.All() {
		t.Run(s.Name, func(t *testing.T) {
			rec := &specRecorder{}
			pool := harness.NewPool(1, 1)
			pool.SetBackend(rec)
			_, err := harness.RunAll(context.Background(), pool, harness.Options{Filters: []string{s.Name}, Params: quick})
			params := quick.Merged(s.Defaults)
			sp, spErr := s.Space(params, pool)
			if spErr != nil {
				t.Fatal(spErr)
			}
			if sp.N == 0 {
				if err != nil || len(rec.specs) != 0 {
					t.Fatalf("a scenario without cells mapped %d cells (err %v)", len(rec.specs), err)
				}
				return
			}
			if !errors.Is(err, errSpecsRecorded) {
				t.Fatalf("scenario returned %v, want the recorder's stop", err)
			}
			if len(rec.specs) != sp.N {
				t.Fatalf("the backend got %d cells of %d", len(rec.specs), sp.N)
			}
			for i, c := range rec.specs {
				want := ""
				if sp.Group != nil {
					want = sp.Group(c.Shard)
				}
				if c.Scenario != s.Name || c.Scope != sp.Scope || c.Shard != i || c.Locality != want {
					t.Errorf("spec %d = %s/%s shard %d locality %q; want %s/%s shard %d locality %q",
						i, c.Scenario, c.Scope, c.Shard, c.Locality, s.Name, sp.Scope, i, want)
				}
				if !reflect.DeepEqual(c.Params, params) {
					t.Errorf("spec %d params %+v, want the merged %+v", i, c.Params, params)
				}
			}
		})
	}
}
