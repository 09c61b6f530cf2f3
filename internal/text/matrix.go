package text

// Matrix is a fixed set of sparse rows (theme centroids, cluster seeds,
// folder centroids) prepared for scoring documents against all of them at
// once. It is the rows transposed: for every term id, the (row, weight)
// pairs of the rows that hold the term, in compressed-sparse-row form, plus
// each row's norm, computed once. A Matrix is immutable after NewMatrix and
// safe for concurrent use.
type Matrix struct {
	// start[t]..start[t+1] delimit term t's postings in row/weight; terms
	// past the last one any row holds have no entry.
	start  []int32
	row    []int32
	weight []float64
	norm   []float64 // per row
}

// NewMatrix prepares rows (each sorted by id, as every Vector is) for
// Cosines. The rows are copied: later changes to them do not show.
func NewMatrix(rows []Vector) *Matrix {
	terms, total := idSpan(rows), 0
	for _, r := range rows {
		total += len(r.IDs)
	}
	m := &Matrix{
		start:  make([]int32, terms+1),
		row:    make([]int32, total),
		weight: make([]float64, total),
		norm:   make([]float64, len(rows)),
	}
	for _, r := range rows {
		for _, id := range r.IDs {
			m.start[id+1]++
		}
	}
	for t := 0; t < terms; t++ {
		m.start[t+1] += m.start[t]
	}
	// Filling row by row leaves every term's postings in row order.
	next := append([]int32(nil), m.start[:terms]...)
	for ri, r := range rows {
		m.norm[ri] = r.Norm()
		for i, id := range r.IDs {
			p := next[id]
			next[id]++
			m.row[p], m.weight[p] = int32(ri), r.Weights[i]
		}
	}
	return m
}

// idSpan returns one more than the largest term id any of the vectors
// (each sorted by id) holds: the size of a table indexed by term id.
func idSpan(vs []Vector) int {
	span := 0
	for _, v := range vs {
		if n := len(v.IDs); n > 0 && int(v.IDs[n-1]) >= span {
			span = int(v.IDs[n-1]) + 1
		}
	}
	return span
}

// Cosines scores doc against every row in one pass over doc's terms and
// returns the scores, one per row, in out's storage when it is large
// enough. Each row's dot product is accumulated in increasing term-id
// order, which is the order Dot's merge visits the shared terms in, so
// out[r] is bit-for-bit Cosine(doc, rows[r]). Terms of doc that no row
// holds cost one bounds check.
func (m *Matrix) Cosines(doc Vector, out []float64) []float64 {
	if cap(out) < len(m.norm) {
		out = make([]float64, len(m.norm))
	}
	out = out[:len(m.norm)]
	clear(out)
	terms := int32(len(m.start) - 1)
	for i, id := range doc.IDs {
		if id < 0 || id >= terms {
			continue
		}
		w := doc.Weights[i]
		for p := m.start[id]; p < m.start[id+1]; p++ {
			out[m.row[p]] += float64(w * m.weight[p])
		}
	}
	nd := doc.Norm()
	for r, nr := range m.norm {
		if nd == 0 || nr == 0 {
			out[r] = 0
		} else {
			out[r] /= nd * nr
		}
	}
	return out
}
