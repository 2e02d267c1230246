package sim

// The snapshot byte layout, pinned across commits. Restore tests only
// check that a state decodes on the code that encoded it; a spill
// written by an older build must decode too, or every -snap-dir
// checkpoint quietly falls back to prefix replay. This test replays a
// fixed prefix through every model whose state the codec can carry and
// compares the encoding's length and SHA-256 with recorded values.
// Change them only with a deliberate format change.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"stbpu/internal/core"
)

// goldenRecords is the replayed prefix of the snapCols trace.
const goldenRecords = 4500

// goldenEncodings lists each model's expected EncodeState length and
// SHA-256 after goldenRecords records: every snapConfigs entry under its
// name, plus the unprotected units over the other direction predictors.
var goldenEncodings = []struct {
	name string
	size int
	sha  string
	new  func(sharedTokens bool) Snapshotter
}{
	{"baseline", 123029, "7f68fb9956bbcf5a609e6e0df64b739d764051e76d7d7d32d06806e1e215b8f4", kindModel(KindBaseline, core.DirSKLCond)},
	{"ucode-protection-1", 71843, "e4489491c66979e92926929124dd7ef212aca5353e39f31220a9fcad0fadb713", kindModel(KindUcode1, core.DirSKLCond)},
	{"ucode-protection-2", 123043, "2df764836da4963acb345d0675063716f51b8d7fc93986a6d3dbb2a848eacb54", kindModel(KindUcode2, core.DirSKLCond)},
	{"conservative", 71829, "2f9e7048c4a5316c02dacde0f80f54323692c44a365ce77511bb26d39ba4b6e8", kindModel(KindConservative, core.DirSKLCond)},
	{"STBPU", 123222, "944dc1e32f352b3143a0d7c29c76df65effa133149e42040e33667fa6cf9b58b", kindModel(KindSTBPU, core.DirSKLCond)},
	{"stbpu/SKLCond", 123222, "944dc1e32f352b3143a0d7c29c76df65effa133149e42040e33667fa6cf9b58b", kindModel(KindSTBPU, core.DirSKLCond)},
	{"stbpu/TAGE_SC_L_8KB", 141491, "2a95263541f93c6c992981881ca5a1eadc33f3e546c1e2258225b9ca88238aa9", kindModel(KindSTBPU, core.DirTAGE8)},
	{"stbpu/TAGE_SC_L_64KB", 518419, "433844b4a5b2a2b1e82ae075352fd3c3e7afbe9178fb4cd28775559f369da691", kindModel(KindSTBPU, core.DirTAGE64)},
	{"stbpu/PerceptronBP", 174410, "272c78622be49e907b7e3ce10a91942e7c7de5a99bdf01b1d619a12260a5f5d3", kindModel(KindSTBPU, core.DirPerceptron)},
	{"unprotected/TAGE_SC_L_8KB", 141298, "bbbdfca73e053352ede73e4c9bd3e6cff73d3c0cf258e6d72cbace5d097ac98b", kindModel(KindBaseline, core.DirTAGE8)},
	{"unprotected/TAGE_SC_L_64KB", 518226, "64993da4607b54f12ebd887577ebe007c3633664a851e4325394c7a7e89ca028", kindModel(KindBaseline, core.DirTAGE64)},
	{"unprotected/PerceptronBP", 174217, "fc7575b1fd9211e076a9187d744c78491ae940248e97b22db00266cf8be2c782", kindModel(KindBaseline, core.DirPerceptron)},
	{"unprotected/SKLCond+ITTAGE", 145713, "efbd6c3a6b0896ee6a197ff421eff53776b4f977fd8a0e74e9b5d46362f0335b", unprotectedITTAGE},
	{"stbpu/SKLCond+ITTAGE", 145906, "bc5a5435aaed779f1eeca55f400bcd03acbb19ecd96fc5c1e83cfd39622b7b9d", stbpuITTAGE},
}

// unprotectedITTAGE builds the unprotected unit with an ITTAGE indirect
// predictor (the ittage scenario's btb+ittage model).
func unprotectedITTAGE(bool) Snapshotter {
	return &UnitModel{ModelName: "btb+ittage", Unit: core.NewUnprotectedUnitITTAGE(core.DirSKLCond)}
}

// stbpuITTAGE builds the STBPU model with a keyed ITTAGE indirect
// predictor.
func stbpuITTAGE(shared bool) Snapshotter {
	return &STBPUModel{Inner: core.NewModel(core.ModelConfig{Seed: 7, SharedTokens: shared, IndirectITTAGE: true})}
}

// kindModel returns a constructor for the factory model of kind over
// dir, seeded like every snapshot test.
func kindModel(kind ModelKind, dir core.DirKind) func(sharedTokens bool) Snapshotter {
	return func(shared bool) Snapshotter {
		return New(kind, Options{Seed: 7, Dir: dir, SharedTokens: shared}).(Snapshotter)
	}
}

func TestEncodeStateGolden(t *testing.T) {
	cols, prof := snapCols(t)
	pinned := make(map[string]bool, len(goldenEncodings))
	for _, g := range goldenEncodings {
		pinned[g.name] = true
		m := g.new(prof.SharedTokens)
		replaySegment(t, m, cols, 0, goldenRecords)
		state := m.EncodeState()
		sum := sha256.Sum256(state)
		if got := hex.EncodeToString(sum[:]); len(state) != g.size || got != g.sha {
			t.Errorf("%s: encoding is %d bytes, sha256 %s; want %d bytes, sha256 %s",
				g.name, len(state), got, g.size, g.sha)
		}
	}
	for _, cfg := range snapConfigs() {
		if !pinned[cfg.name] {
			t.Errorf("snapshot config %q has no pinned encoding", cfg.name)
		}
	}
}
