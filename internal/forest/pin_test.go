package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// The ensemble pin: every fitted tree's node arrays and the batched
// predictions, hashed, for the fitting paths the optimizer uses. Any
// change to split selection, RNG draw order, row sampling or summation
// order changes a hash, so a kernel rewrite that claims to be
// bit-identical must leave every entry below untouched. Parallelism 1
// and 0 must both produce the pinned hashes.
var pinnedEnsembles = map[string]string{
	"synthetic/Fit/rate=0":           "a38344e55187e83aa18f83aaa9b03773",
	"synthetic/FitSampled/rate=1":    "a38344e55187e83aa18f83aaa9b03773",
	"synthetic/Refit/rate=0.7/step1": "340388a186d04affe5a964b3f0c8a728",
	"synthetic/Refit/rate=0.7/step2": "097ea220b1b150984d75d74d9ab1959f",
	"synthetic/Refit/rate=0.7/step3": "ef0010fc9732673ccff1cdf2d620d1c0",
	"pairwise/Fit/rate=0":            "e810ac03e09a11346d99228b7ac7c521",
	"pairwise/FitSampled/rate=1":     "e810ac03e09a11346d99228b7ac7c521",
	"pairwise/Refit/rate=0.7/step1":  "1b4d9807cdeed12f20ea4a8fe21f3560",
	"pairwise/Refit/rate=0.7/step2":  "b4af18cca2a3db8a4fe066119de3336f",
	"pairwise/Refit/rate=0.7/step3":  "7b7de89a35667659a9ffa47dbcfa308a",
}

// pinTraining is one training set with its per-row observation units,
// rows in measurement order: the rows of units [0, k) form a prefix.
type pinTraining struct {
	Xs    [][]float64 `json:"xs"`
	Ys    []float64   `json:"ys"`
	Units [][2]int32  `json:"units"`
}

// prefix returns the rows whose units are both below limit.
func (p pinTraining) prefix(limit int32) ([][]float64, []float64, [][2]int32) {
	return rowsForUnits(p.Xs, p.Ys, p.Units, limit)
}

func (p pinTraining) numUnits() int32 {
	n := int32(0)
	for _, u := range p.Units {
		n = max(n, u[0]+1, u[1]+1)
	}
	return n
}

// syntheticPinTraining is syntheticTraining's 18*17 rows, labelled with
// the ordered unit pairs of 18 observations in measurement order.
func syntheticPinTraining() pinTraining {
	xs, ys := syntheticTraining(18*17, 14)
	units := make([][2]int32, 0, len(xs))
	for k := int32(0); k < 18; k++ {
		for j := int32(0); j < k; j++ {
			units = append(units, [2]int32{j, k}, [2]int32{k, j})
		}
	}
	return pinTraining{Xs: xs, Ys: ys, Units: units}
}

// pairwisePinTraining loads the last objective-model training set of a
// real augmented search (als/spark2.1/medium, cost objective, seed 1,
// delta stop disabled, 12 measurements): 110 (source, destination) pair
// rows over 11 observations, where rows that share a destination share
// a target.
func pairwisePinTraining(t *testing.T) pinTraining {
	t.Helper()
	b, err := os.ReadFile("testdata/pairwise_training.json")
	if err != nil {
		t.Fatal(err)
	}
	var p pinTraining
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// ensembleDigest hashes every tree's node arrays in ensemble order, then
// the batch predictions at queries.
func ensembleDigest(t *testing.T, r *Regressor, queries [][]float64) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range r.trees {
		tr := &r.trees[i]
		put(uint64(len(tr.feature)))
		for n := range tr.feature {
			put(uint64(uint32(tr.feature[n])))
			put(math.Float64bits(tr.threshold[n]))
			put(uint64(uint32(tr.left[n])))
			put(uint64(uint32(tr.right[n])))
		}
	}
	preds, err := r.PredictBatch(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		put(math.Float64bits(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// pinQueries is the training rows plus the midpoint of each consecutive
// pair, so predictions also land between training values.
func pinQueries(xs [][]float64) [][]float64 {
	q := append([][]float64(nil), xs...)
	for i := 1; i < len(xs); i++ {
		mid := make([]float64, len(xs[i]))
		for j := range mid {
			mid[j] = (xs[i-1][j] + xs[i][j]) / 2
		}
		q = append(q, mid)
	}
	return q
}

func TestEnsemblePinned(t *testing.T) {
	sets := []struct {
		name string
		data pinTraining
	}{
		{"synthetic", syntheticPinTraining()},
		{"pairwise", pairwisePinTraining(t)},
	}
	for _, workers := range []int{1, 0} {
		got := map[string]string{}
		for _, set := range sets {
			d := set.data
			queries := pinQueries(d.Xs)
			cfg := Config{Seed: 42, Parallelism: workers}

			reg, err := Fit(cfg, d.Xs, d.Ys)
			if err != nil {
				t.Fatal(err)
			}
			got[set.name+"/Fit/rate=0"] = ensembleDigest(t, reg, queries)

			cfg.SampleRate = 1
			if reg, err = FitSampled(cfg, d.Xs, d.Ys, d.Units); err != nil {
				t.Fatal(err)
			}
			got[set.name+"/FitSampled/rate=1"] = ensembleDigest(t, reg, queries)

			cfg.SampleRate = 0.7
			var prev *Regressor
			last := d.numUnits()
			for step, limit := range []int32{last - 2, last - 1, last} {
				xs, ys, units := d.prefix(limit)
				reg, info, err := Refit(prev, cfg, xs, ys, units)
				if err != nil {
					t.Fatal(err)
				}
				if step > 0 && !info.Incremental {
					t.Fatalf("%s step %d: refit was not incremental", set.name, step+1)
				}
				got[fmt.Sprintf("%s/Refit/rate=0.7/step%d", set.name, step+1)] = ensembleDigest(t, reg, queries)
				prev = reg
			}
		}
		for name, want := range pinnedEnsembles {
			if got[name] != want {
				t.Errorf("parallelism %d: %s digest %q, pinned %q", workers, name, got[name], want)
			}
		}
	}
}
