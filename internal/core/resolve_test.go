package core

import (
	"bytes"
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/ittage"
	"stbpu/internal/snap"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// saltedMapper is the conservative model's addressing (sim's
// entityMapper): legacy folds salted with the software entity, so one
// pc's BTB set/tag/offset and PHT indexes change with the entity that
// runs it, and a halved PHT.
type saltedMapper struct {
	bpu.LegacyMapper
	salt uint64
}

func (m *saltedMapper) enter(rec trace.Record) {
	m.salt = uint64(rec.PID) << 20
	if rec.Kernel {
		m.salt = 0xffff_0000_0000
	}
}

func (m *saltedMapper) PHT1(pc uint64) uint32 {
	return m.LegacyMapper.PHT1(pc^m.salt) & (bpu.PHTSize/2 - 1)
}

func (m *saltedMapper) PHT2(pc uint64, ghr uint64) uint32 {
	return m.LegacyMapper.PHT2(pc^m.salt, ghr) & (bpu.PHTSize/2 - 1)
}

func (m *saltedMapper) BTBIndex(pc uint64) (set, tag, offs uint32) {
	return m.LegacyMapper.BTBIndex(pc ^ m.salt ^ m.salt<<13)
}

// twin is one side of a differential pair: a unit, what runs before
// each branch (an entity's salt or token), what runs after it (an ST
// model's threshold monitoring), and its state encoding.
type twin struct {
	unit   *bpu.Unit
	before func(rec trace.Record)
	after  func(rec trace.Record, ev bpu.Events)
	encode func() []byte
	rerand func() uint64 // ST twins only
}

func newITTAGE(t *testing.T) bpu.IndirectPredictor {
	ind, err := ittage.New(ittage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ind
}

// unitTwin wraps a unit with no entity state.
func unitTwin(u *bpu.Unit) twin {
	return twin{unit: u, encode: func() []byte {
		w := snap.NewWriter(0)
		EncodeUnit(u, w)
		return w.Bytes()
	}}
}

// TestResolveMatchesPredictUpdate steps twin units over two presets,
// one through Resolve and one through Update(rec, Predict(pc, kind)),
// and requires the same Events for every record and the same encoded
// state at the end. The units cover every mapper and direction
// predictor the models use, each with and without ITTAGE: the legacy
// SKLCond unit, the conservative unit (entity-salted mapper, full-tag
// BTB), the unprotected unit of every DirKind, and the keyed ST unit of
// every DirKind under thresholds low enough that tokens re-randomize
// mid-entity. The salted and keyed units change a pc's BTB fields
// between records, so a Resolve that reused a stale index would
// diverge here.
func TestResolveMatchesPredictUpdate(t *testing.T) {
	const records = 20_000
	dirs := []DirKind{DirSKLCond, DirTAGE8, DirTAGE64, DirPerceptron}
	type unitCase struct {
		name  string
		build func(shared bool) twin
	}
	var cases []unitCase
	for _, it := range []bool{false, true} {
		it := it // go.mod's go 1.21: the closures below outlive the iteration
		suffix := ""
		if it {
			suffix = "+ITTAGE"
		}
		indirect := func() bpu.IndirectPredictor {
			if it {
				return newITTAGE(t)
			}
			return nil
		}
		cases = append(cases,
			unitCase{"legacy-SKLCond" + suffix, func(bool) twin {
				return unitTwin(bpu.NewUnit(bpu.UnitConfig{Indirect: indirect()}))
			}},
			unitCase{"conservative" + suffix, func(bool) twin {
				m := &saltedMapper{}
				tw := unitTwin(bpu.NewUnit(bpu.UnitConfig{Mapper: m, BTB: bpu.ConservativeBTBConfig(), Indirect: indirect()}))
				tw.before = m.enter
				return tw
			}},
		)
		for _, dir := range dirs {
			dir := dir
			cases = append(cases,
				unitCase{"unprotected-" + dir.String() + suffix, func(bool) twin {
					if it {
						return unitTwin(NewUnprotectedUnitITTAGE(dir))
					}
					return unitTwin(NewUnprotectedUnit(dir))
				}},
				unitCase{"ST-" + dir.String() + suffix, func(shared bool) twin {
					th := token.Thresholds{Mispredictions: 40, Evictions: 20, TageMispredictions: 30}
					m := NewModel(ModelConfig{Dir: dir, Thresholds: &th, SharedTokens: shared, IndirectITTAGE: it})
					return twin{
						unit: m.unit,
						before: func(rec trace.Record) {
							if key := EntityKey(rec, m.sharedTokens); !m.haveKey || key != m.curKey {
								m.loadToken(key)
							}
						},
						after:  func(rec trace.Record, ev bpu.Events) { m.monitor(EntityKey(rec, m.sharedTokens), ev) },
						encode: m.EncodeState,
						rerand: m.Rerandomizations,
					}
				}},
			)
		}
	}

	for _, preset := range []string{"apache2_prefork_c128", "523.xalancbmk"} {
		p, err := trace.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Generate(p.WithRecords(records))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			c := c
			t.Run(preset+"/"+c.name, func(t *testing.T) {
				fused, split := c.build(p.SharedTokens), c.build(p.SharedTokens)
				for i, rec := range tr.Records {
					if fused.before != nil {
						fused.before(rec)
						split.before(rec)
					}
					got := fused.unit.Resolve(rec.PC, rec.Target, rec.Kind, rec.Taken)
					want := split.unit.Update(rec, split.unit.Predict(rec.PC, rec.Kind))
					if got != want {
						t.Fatalf("record %d (%+v): Resolve = %07b, Update(Predict) = %07b", i, rec, got, want)
					}
					if fused.after != nil {
						fused.after(rec, got)
						split.after(rec, want)
					}
				}
				a, b := fused.encode(), split.encode()
				if !bytes.Equal(a, b) {
					t.Errorf("encoded state after %d records differs: %d bytes through Resolve, %d through Update(Predict)",
						len(tr.Records), len(a), len(b))
				}
				if fused.rerand != nil && fused.rerand() == 0 {
					t.Errorf("no re-randomization in %d records: the keys never changed mid-entity", len(tr.Records))
				}
			})
		}
	}
}
