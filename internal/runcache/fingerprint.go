package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Fingerprint is the canonical description of one search execution. The
// study layer fills it from a MethodConfig plus the run coordinates
// (workload, objective, seed) and the substrate version; fields that do
// not influence the method's behavior are left at their zero value so
// cosmetically different configurations collide onto the same Key.
// Callers are responsible for canonicalization (resolving defaulted
// zero values, dropping fields irrelevant to the method): the
// fingerprint hashes exactly what it is given.
type Fingerprint struct {
	// Schema versions the fingerprint layout itself.
	Schema string
	// Semantics versions the optimizers' behavior: a change that alters
	// what a search does bumps it, so older cached results never match.
	Semantics int
	// Substrate versions the measurement substrate: results produced
	// under different substrate versions never share a key.
	Substrate string

	Method     string
	WorkloadID string
	Objective  string
	Seed       int64

	// Kernel is the GP covariance family (Naive and Hybrid).
	Kernel string
	// EIStop is the canonical EI stopping fraction (-1 when disabled).
	EIStop float64
	// Delta is the canonical Prediction-Delta threshold (-1 when
	// disabled; Augmented and Hybrid).
	Delta float64
	// SwitchAfter is Hybrid's handover point.
	SwitchAfter int

	// Extra-Trees configuration (Augmented and Hybrid). Zero
	// ForestMaxFeatures means the round(sqrt(d)) default and zero
	// ForestMaxDepth means unbounded — both are already canonical.
	ForestTrees       int
	ForestMinSplit    int
	ForestMaxFeatures int
	ForestMaxDepth    int
	// ForestSampleRate is the resolved per-tree unit keep probability.
	ForestSampleRate float64

	// Initial-design configuration.
	DesignKind  string
	DesignSize  int
	DesignFixed []int
}

// Key hashes the fingerprint into its content address. Strings are
// quoted so no field separator can be forged from inside a workload ID;
// floats print with enough digits to round-trip exactly. The encoding is
// appended directly rather than through fmt: a warm study looks a key up
// for every search it replays, and formatting dominates that path.
func (f Fingerprint) Key() Key {
	b := make([]byte, 0, 256)
	str := func(s string, sep byte) {
		b = strconv.AppendQuote(b, s)
		b = append(b, sep)
	}
	num := func(v int64, sep byte) {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, sep)
	}
	float := func(v float64, sep byte) {
		b = strconv.AppendFloat(b, v, 'g', 17, 64)
		b = append(b, sep)
	}
	str(f.Schema, '|')
	num(int64(f.Semantics), '|')
	str(f.Substrate, '|')
	str(f.Method, '|')
	str(f.WorkloadID, '|')
	str(f.Objective, '|')
	num(f.Seed, '|')
	str(f.Kernel, '|')
	float(f.EIStop, '|')
	float(f.Delta, '|')
	num(int64(f.SwitchAfter), '|')
	num(int64(f.ForestTrees), ',')
	num(int64(f.ForestMinSplit), ',')
	num(int64(f.ForestMaxFeatures), ',')
	num(int64(f.ForestMaxDepth), ',')
	float(f.ForestSampleRate, '|')
	str(f.DesignKind, '|')
	num(int64(f.DesignSize), '|')
	b = append(b, '[')
	for i, v := range f.DesignFixed {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ']')
	sum := sha256.Sum256(b)
	return Key(hex.EncodeToString(sum[:]))
}
