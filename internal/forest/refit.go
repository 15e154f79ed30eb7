// Delta-aware ensemble refits.
//
// The optimizer's loop appends a handful of training rows per iteration
// and refits; growing all hundred trees from scratch each time makes the
// refit cost proportional to the history. FitSampled changes the
// ensemble's sampling scheme so that Refit can make it proportional to
// the delta instead: each tree keeps a deterministic Bernoulli subset of
// the *observation units* (hash of tree seed and unit id), and trains
// only on rows whose units it kept. A newly measured unit's rows then
// land only in the trees that keep that unit — the rest of the ensemble
// is provably unchanged and is reused verbatim. Per-tree fingerprints
// over the kept row sets make "unchanged" an O(rows) check, and a
// fingerprint/config/prefix mismatch falls back to a full re-grow, so
// Refit is always bit-identical to FitSampled on the same inputs.

package forest

import "fmt"

// RefitInfo reports how a Refit call was satisfied, for telemetry.
type RefitInfo struct {
	// Incremental is true when the previous ensemble's training snapshot
	// was compatible (same resolved config, rows extended as a bitwise
	// prefix) and per-tree reuse was attempted. False means a full
	// re-grow.
	Incremental bool
	// ReusedTrees counts trees carried over verbatim because their
	// sampled row set did not change; TotalTrees is the ensemble size.
	ReusedTrees int
	TotalTrees  int
}

// sampleState is the training snapshot a FitSampled ensemble retains so a
// later Refit can detect what changed.
type sampleState struct {
	cfg   Config // resolved; Parallelism excluded from compatibility
	n     int
	dims  int
	cols  []float64 // column-major training matrix, stride n
	ys    []float64
	units [][2]int32
	fps   []uint64 // per-tree fingerprint of the sampled row set
}

// keepUnit hashes (tree seed, unit) to a uniform coin with keep
// probability rate. The hash is a splitmix64 finalizer over a
// position-based mix, so membership depends only on the seed and the unit
// id — never on row order or scheduling.
func keepUnit(seed int64, unit int32, rate float64) bool {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(uint32(unit))+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)*(1.0/(1<<53)) < rate
}

// fingerprintRows chains the kept row indices through a splitmix64-style
// mix. Two equal fingerprints mean the tree would train on the same rows.
func fingerprintRows(rows []int32) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, r := range rows {
		h += uint64(r) + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	}
	return h ^ (h >> 31)
}

// fullRowsFingerprint marks a tree that trains on the full training set
// (no subsampling, or fewer than two sampled rows). It depends on n, so
// any append re-grows such a tree.
func fullRowsFingerprint(n int) uint64 {
	return fingerprintRows([]int32{-1, int32(n)})
}

// subsamples reports whether a resolved SampleRate draws per-tree unit
// subsets; zero and one both mean every tree sees every row.
func subsamples(rate float64) bool { return rate != 0 && rate != 1 }

// sampleRows fills g.idx with the rows the tree seeded by seed trains on
// and returns their count and fingerprint. With units nil every row is
// kept. Otherwise one pass decides each unit's membership (both of a
// row's units must be kept) and collects the kept rows in ascending
// order; a tree left with fewer than two rows falls back to the full
// training set.
func (g *grower) sampleRows(seed int64, units [][2]int32, rate float64) (int, uint64) {
	if units != nil {
		for u := range g.keep {
			g.keep[u] = 0
			if keepUnit(seed, int32(u), rate) {
				g.keep[u] = 1
			}
		}
		// Branch-free: membership is a coin flip per row, so every row is
		// written to the next slot and only a kept one advances past it.
		m := 0
		for i, u := range units {
			g.idx[m] = int32(i)
			m += int(g.keep[u[0]] & g.keep[u[1]])
		}
		if m >= 2 {
			return m, fingerprintRows(g.idx[:m])
		}
	}
	for i := range g.idx {
		g.idx[i] = int32(i)
	}
	return g.n, fullRowsFingerprint(g.n)
}

// validateUnits checks the per-row unit pairs FitSampled and Refit
// require.
func validateUnits(units [][2]int32, n int) error {
	if len(units) != n {
		return fmt.Errorf("forest: %d rows but %d unit pairs", n, len(units))
	}
	for i, u := range units {
		if u[0] < 0 || u[1] < 0 {
			return fmt.Errorf("forest: negative unit id in row %d: %v", i, u)
		}
	}
	return nil
}

// FitSampled grows a delta-aware ensemble: each tree trains on the rows
// whose observation units it keeps (Bernoulli cfg.SampleRate per unit,
// both of the row's units must be kept). units pairs each training row
// with the observation units it derives from — for a pairwise row
// (source obs, destination obs), for a self or warm-start row the same
// unit twice. The fitted Regressor retains its training snapshot so Refit
// can re-grow only the trees whose sampled rows changed.
func FitSampled(cfg Config, xs [][]float64, ys []float64, units [][2]int32) (*Regressor, error) {
	reg, _, err := Refit(nil, cfg, xs, ys, units)
	return reg, err
}

// Refit fits the same ensemble FitSampled(cfg, xs, ys, units) would —
// bit-identically — but reuses every tree of prev whose sampled row set
// is unchanged. Reuse applies when prev was fitted via FitSampled/Refit
// with the same resolved config (Parallelism aside) and (xs, ys, units)
// extend prev's training set as a bitwise prefix; anything else falls
// back to a full re-grow. prev is not mutated and remains usable for
// prediction; pass nil to fit from scratch.
func Refit(prev *Regressor, cfg Config, xs [][]float64, ys []float64, units [][2]int32) (*Regressor, RefitInfo, error) {
	dims, err := validateTraining(xs, ys)
	if err != nil {
		return nil, RefitInfo{}, err
	}
	cfg, err = resolveConfig(cfg, dims)
	if err != nil {
		return nil, RefitInfo{}, err
	}
	n := len(xs)
	if err := validateUnits(units, n); err != nil {
		return nil, RefitInfo{}, err
	}

	st := &sampleState{
		cfg:   cfg,
		n:     n,
		dims:  dims,
		cols:  buildColumns(xs, dims),
		ys:    append([]float64(nil), ys...),
		units: append([][2]int32(nil), units...),
	}
	info := RefitInfo{TotalTrees: cfg.NumTrees}
	if prev != nil && prev.state != nil && compatible(prev.state, st) {
		info.Incremental = true
	} else {
		prev = nil
	}
	trees, fps, reused := growEnsemble(cfg, st.cols, st.ys, st.units, prev)
	st.fps = fps
	info.ReusedTrees = reused
	return &Regressor{
		trees:       trees,
		numDims:     dims,
		parallelism: cfg.Parallelism,
		state:       st,
	}, info, nil
}

// compatible reports whether next's training set extends prev's under the
// same resolved ensemble config, which is the precondition for per-tree
// reuse. The prefix comparison is bitwise over features, targets, and
// unit pairs.
func compatible(prev, next *sampleState) bool {
	pc, nc := prev.cfg, next.cfg
	pc.Parallelism, nc.Parallelism = 0, 0
	if pc != nc || prev.dims != next.dims || prev.n > next.n {
		return false
	}
	for f := 0; f < prev.dims; f++ {
		prevCol := prev.cols[f*prev.n : (f+1)*prev.n]
		nextCol := next.cols[f*next.n : f*next.n+prev.n]
		for i, v := range prevCol {
			if nextCol[i] != v {
				return false
			}
		}
	}
	for i, y := range prev.ys {
		if next.ys[i] != y {
			return false
		}
	}
	for i, u := range prev.units {
		if next.units[i] != u {
			return false
		}
	}
	return true
}
