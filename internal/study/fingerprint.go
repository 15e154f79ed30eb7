package study

import (
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/kernel"
	"repro/internal/runcache"
)

// fingerprintSchema versions the canonicalization below, independently of
// the substrate and of the optimizers' behavior (core.SemanticsVersion):
// bump it when the mapping from MethodConfig to Fingerprint changes.
const fingerprintSchema = "arrow-run/2"

// Fingerprint canonically identifies the search RunSearch(mc, w,
// objective, seed) would execute, for cache addressing. Canonical means
// two MethodConfigs that build behaviorally identical optimizers map to
// the same fingerprint: defaulted zero values are resolved (a zero
// kernel and an explicit Matérn 5/2 collide, as do a zero forest
// SampleRate and core.DefaultPairSampleRate), every disabled stopping
// threshold collapses to -1, and fields the method ignores are dropped —
// including forest Seed (the optimizer overrides it) and Parallelism
// (results are bit-identical at any worker count).
func (mc MethodConfig) Fingerprint(workloadID string, objective core.Objective, seed int64, substrate string) runcache.Fingerprint {
	fp := runcache.Fingerprint{
		Schema:     fingerprintSchema,
		Semantics:  core.SemanticsVersion,
		Substrate:  substrate,
		Method:     mc.Method.String(),
		WorkloadID: workloadID,
		Objective:  objective.String(),
		Seed:       seed,
	}
	design := func() {
		kind := mc.Design.Kind
		if kind == 0 {
			kind = core.DesignQuasiRandom
		}
		size := mc.Design.NumInitial
		if size == 0 {
			size = core.DefaultNumInitial
		}
		fp.DesignKind = kind.String()
		fp.DesignSize = size
		if kind == core.DesignFixed {
			fp.DesignFixed = append([]int(nil), mc.Design.Fixed...)
		}
	}
	forestCfg := func() {
		fc := mc.Forest
		if fc.NumTrees == 0 {
			fc.NumTrees = forest.DefaultNumTrees
		}
		if fc.MinSamplesSplit == 0 {
			fc.MinSamplesSplit = forest.DefaultMinSamplesSplit
		}
		fp.ForestTrees = fc.NumTrees
		fp.ForestMinSplit = fc.MinSamplesSplit
		fp.ForestMaxFeatures = fc.MaxFeatures // 0 = round(sqrt(d)), already canonical
		fp.ForestMaxDepth = fc.MaxDepth       // 0 = unbounded
		if fp.ForestSampleRate = fc.SampleRate; fp.ForestSampleRate == 0 {
			fp.ForestSampleRate = core.DefaultPairSampleRate
		}
	}
	kernelName := func(k kernel.Kind) string {
		if k == 0 {
			k = kernel.Matern52
		}
		return k.String()
	}
	// canonStop resolves a stopping threshold: zero means the default,
	// any negative value means disabled.
	canonStop := func(v, def float64) float64 {
		switch {
		case v == 0:
			return def
		case v < 0:
			return -1
		default:
			return v
		}
	}

	switch mc.Method {
	case MethodNaive:
		fp.Kernel = kernelName(mc.Kernel)
		fp.EIStop = canonStop(mc.EIStop, core.DefaultEIStopFraction)
		design()
	case MethodAugmented:
		fp.Delta = canonStop(mc.Delta, core.DefaultDeltaThreshold)
		forestCfg()
		design()
	case MethodHybrid:
		// The hybrid's opening phase never EI-stops (the switch point
		// decides the handover), so EIStop is cosmetic here.
		fp.Kernel = kernelName(mc.Kernel)
		fp.Delta = canonStop(mc.Delta, core.DefaultDeltaThreshold)
		if fp.SwitchAfter = mc.SwitchAfter; fp.SwitchAfter == 0 {
			fp.SwitchAfter = core.DefaultSwitchAfter
		}
		forestCfg()
		design()
	default:
		// MethodRandom (and unknown methods, which fail in Build before
		// anything is cached) depend only on workload, objective, seed.
	}
	return fp
}
