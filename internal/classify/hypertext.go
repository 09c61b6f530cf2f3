package classify

import (
	"math"
)

// Doc is one node in the hypertext corpus handed to the combined
// classifier: its term counts, its link neighbourhood, the folder other
// surfers filed it under (if any), and its known label (empty for the
// documents to classify).
type Doc struct {
	ID        int64
	TF        map[string]int
	Neighbors []int64
	Folder    string
	Label     string
}

// HypertextOptions tunes the combined model.
type HypertextOptions struct {
	// LinkWeight λ_L scales hyperlink neighbour evidence (default 2.0;
	// ablation A3 sweeps this).
	LinkWeight float64
	// DisableLinks / DisableFolders turn off one evidence source; used by
	// the E1 ablations (text+link, text+folder, full).
	DisableLinks   bool
	DisableFolders bool
}

const (
	// folderWeight λ_F scales folder co-placement evidence.
	folderWeight = 1.5
	// relaxIterations bounds the relaxation-labelling rounds.
	relaxIterations = 8
	// folderSmoothing smooths the folder priors.
	folderSmoothing = 0.5
)

func (o *HypertextOptions) defaults() {
	if o.LinkWeight == 0 {
		o.LinkWeight = 2.0
	}
}

// Hypertext combines a trained text model with link and folder evidence.
type Hypertext struct {
	Text *Bayes
	Opts HypertextOptions
	// folderPrior[folder][classIdx] = log P(c|f), built from labelled docs.
	folderPrior map[string][]float64
}

// NewHypertext wraps a trained text model.
func NewHypertext(text *Bayes, opts HypertextOptions) *Hypertext {
	opts.defaults()
	return &Hypertext{Text: text, Opts: opts}
}

// ClassifyGraph labels every unlabelled document in docs using relaxation
// labelling: class distributions are initialized from the text model (and
// clamped for labelled documents), then iteratively updated so that each
// document's distribution is consistent with its neighbours' distributions
// and its folder's label profile. Returns doc id → predicted class.
func (h *Hypertext) ClassifyGraph(docs []Doc) map[int64]string {
	nC := len(h.Text.Classes)
	byID := make(map[int64]int, len(docs))
	for i := range docs {
		byID[docs[i].ID] = i
	}

	// Folder priors from labelled docs.
	h.folderPrior = map[string][]float64{}
	if !h.Opts.DisableFolders {
		counts := map[string][]float64{}
		for i := range docs {
			d := &docs[i]
			if d.Label == "" || d.Folder == "" {
				continue
			}
			ci := h.Text.ClassIndex(d.Label)
			if ci < 0 {
				continue
			}
			cs := counts[d.Folder]
			if cs == nil {
				cs = make([]float64, nC)
				counts[d.Folder] = cs
			}
			cs[ci]++
		}
		for f, cs := range counts {
			lp := make([]float64, nC)
			var total float64
			for _, c := range cs {
				total += c
			}
			for ci := range cs {
				lp[ci] = math.Log((cs[ci] + folderSmoothing) / (total + folderSmoothing*float64(nC)))
			}
			h.folderPrior[f] = lp
		}
	}

	// Base text scores (log) per doc; labelled docs get a clamped
	// distribution.
	base := make([][]float64, len(docs))
	dist := make([][]float64, len(docs))
	for i := range docs {
		d := &docs[i]
		if d.Label != "" {
			ci := h.Text.ClassIndex(d.Label)
			p := make([]float64, nC)
			for j := range p {
				p[j] = 1e-6
			}
			if ci >= 0 {
				p[ci] = 1
			}
			dist[i] = normalize(p)
			continue
		}
		logs := h.Text.LogScores(d.TF)
		if !h.Opts.DisableFolders && d.Folder != "" {
			if fp, ok := h.folderPrior[d.Folder]; ok {
				for ci := range logs {
					logs[ci] += folderWeight * fp[ci]
				}
			}
		}
		base[i] = logs
		dist[i] = softmax(logs)
	}

	// Relaxation labelling.
	if !h.Opts.DisableLinks {
		for it := 0; it < relaxIterations; it++ {
			next := make([][]float64, len(docs))
			changed := false
			for i := range docs {
				d := &docs[i]
				if d.Label != "" {
					next[i] = dist[i]
					continue
				}
				logs := append([]float64(nil), base[i]...)
				for _, nb := range d.Neighbors {
					j, ok := byID[nb]
					if !ok {
						continue
					}
					for ci := range logs {
						// log of neighbour's belief, floored to avoid -inf.
						logs[ci] += h.Opts.LinkWeight * math.Log(dist[j][ci]+1e-9)
					}
				}
				nd := softmax(logs)
				next[i] = nd
				if !changed {
					for ci := range nd {
						if math.Abs(nd[ci]-dist[i][ci]) > 1e-4 {
							changed = true
							break
						}
					}
				}
			}
			dist = next
			if !changed {
				break
			}
		}
	}

	out := make(map[int64]string, len(docs))
	for i := range docs {
		d := &docs[i]
		if d.Label != "" {
			out[d.ID] = d.Label
			continue
		}
		best := 0
		for ci, p := range dist[i] {
			if p > dist[i][best] {
				best = ci
			}
		}
		out[d.ID] = h.Text.Classes[best]
	}
	return out
}

func normalize(p []float64) []float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	if s == 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return p
	}
	for i := range p {
		p[i] /= s
	}
	return p
}

// Accuracy computes the fraction of docs in truth whose predicted label
// matches; docs missing from pred count as wrong.
func Accuracy(pred map[int64]string, truth map[int64]string) float64 {
	if len(truth) == 0 {
		return 0
	}
	correct := 0
	for id, want := range truth {
		if pred[id] == want {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}
