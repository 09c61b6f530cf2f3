package text

import (
	"math"
	"math/rand"
	"testing"
)

// randomVector draws a sparse vector of n distinct term ids below vocab,
// sorted, with weights in (0, 1] — or, one time in eight, a weight of
// exactly zero, which tf·idf gives a term every document holds.
func randomVector(rng *rand.Rand, n, vocab int) Vector {
	seen := map[int32]bool{}
	var v Vector
	for len(v.IDs) < n {
		id := int32(rng.Intn(vocab))
		if seen[id] {
			continue
		}
		seen[id] = true
		w := 1 - rng.Float64()
		if rng.Intn(8) == 0 {
			w = 0
		}
		v.IDs = append(v.IDs, id)
		v.Weights = append(v.Weights, w)
	}
	v.sortByID()
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVector(a, b Vector) bool {
	if len(a.IDs) != len(b.IDs) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || !sameBits(a.Weights[i], b.Weights[i]) {
			return false
		}
	}
	return true
}

// TestMatrixCosinesMatchCosine is the differential test of the kernel:
// every score bit-equal to the pairwise Cosine it replaces, over random
// rows that include empty rows, all-zero rows and documents with term ids
// past the matrix's last.
func TestMatrixCosinesMatchCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 50; trial++ {
		vocab := 20 + rng.Intn(400)
		rows := make([]Vector, rng.Intn(40))
		for r := range rows {
			switch rng.Intn(6) {
			case 0: // empty row
			case 1: // zero norm
				rows[r] = randomVector(rng, 1+rng.Intn(5), vocab)
				for i := range rows[r].Weights {
					rows[r].Weights[i] = 0
				}
			default:
				rows[r] = randomVector(rng, 1+rng.Intn(vocab/2), vocab)
			}
		}
		m := NewMatrix(rows)
		var out []float64
		for d := 0; d < 20; d++ {
			// Documents draw from twice the vocabulary: half their ids are
			// beyond anything a row holds.
			doc := randomVector(rng, rng.Intn(30), 2*vocab)
			out = m.Cosines(doc, out)
			if len(out) != len(rows) {
				t.Fatalf("Cosines returned %d scores for %d rows", len(out), len(rows))
			}
			for r := range rows {
				if want := Cosine(doc, rows[r]); !sameBits(out[r], want) {
					t.Fatalf("trial %d doc %d row %d: Cosines = %v, Cosine = %v", trial, d, r, out[r], want)
				}
			}
		}
	}
}

func TestMatrixCopiesItsRows(t *testing.T) {
	row := Vector{IDs: []int32{1, 3}, Weights: []float64{1, 2}}
	doc := Vector{IDs: []int32{3}, Weights: []float64{1}}
	m := NewMatrix([]Vector{row})
	want := m.Cosines(doc, nil)[0]
	row.Weights[1] = 100
	if got := m.Cosines(doc, nil)[0]; got != want {
		t.Fatalf("score moved from %v to %v after the row was changed", want, got)
	}
}

// pairwiseCentroid is Centroid as it was written before the accumulate
// pass: a chain of Add calls. Kept as the reference the new one must equal
// bit for bit.
func pairwiseCentroid(vs []Vector) Vector {
	if len(vs) == 0 {
		return Vector{}
	}
	acc := Vector{IDs: vs[0].IDs, Weights: append([]float64(nil), vs[0].Weights...)}
	for _, v := range vs[1:] {
		acc = Add(acc, v)
	}
	return acc.Scale(1 / float64(len(vs)))
}

func TestCentroidMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		vocab := 10 + rng.Intn(300)
		vs := make([]Vector, 1+rng.Intn(30))
		for i := range vs {
			vs[i] = randomVector(rng, rng.Intn(vocab/2), vocab)
		}
		if got, want := Centroid(vs), pairwiseCentroid(vs); !sameVector(got, want) {
			t.Fatalf("trial %d: Centroid = %v, pairwise = %v", trial, got, want)
		}
	}
}

// TestCentroidLeavesInputsAlone: Centroid of one vector used to return that
// vector, so the Normalize that theme discovery chains onto it rescaled a
// folder's only document in place.
func TestCentroidLeavesInputsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for n := 1; n <= 4; n++ {
		vs := make([]Vector, n)
		before := make([]Vector, n)
		for i := range vs {
			vs[i] = randomVector(rng, 5+rng.Intn(10), 40)
			before[i] = Vector{
				IDs:     append([]int32(nil), vs[i].IDs...),
				Weights: append([]float64(nil), vs[i].Weights...),
			}
		}
		Centroid(vs).Normalize()
		for i := range vs {
			if !sameVector(vs[i], before[i]) {
				t.Fatalf("Centroid of %d vectors, then Normalize, changed input %d:\n got %v\nwant %v", n, i, vs[i], before[i])
			}
		}
	}
}

// benchmarkWorld is the shape the repository's benchmark has at 8 000
// visits: rows centroids of 1–3 k terms each over a vocabulary of 20 000,
// and 80-term documents.
func benchmarkWorld(rows, docs int) ([]Vector, []Vector) {
	rng := rand.New(rand.NewSource(1))
	const vocab = 20000
	rs := make([]Vector, rows)
	for i := range rs {
		rs[i] = randomVector(rng, 1000+rng.Intn(2000), vocab)
	}
	ds := make([]Vector, docs)
	for i := range ds {
		ds[i] = randomVector(rng, 80, vocab)
	}
	return rs, ds
}

var sink float64

func BenchmarkMatrixCosines(b *testing.B) {
	rows, docs := benchmarkWorld(60, 100)
	m := NewMatrix(rows)
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.Cosines(docs[i%len(docs)], out)
		sink = out[0]
	}
}

// BenchmarkCentroid is one theme's centroid: 150 documents of 80 terms.
func BenchmarkCentroid(b *testing.B) {
	_, docs := benchmarkWorld(0, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Centroid(docs).Weights[0]
	}
}
