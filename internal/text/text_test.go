package text

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"B+tree-based KV store", []string{"tree", "based", "kv", "store"}},
		{"", nil},
		{"a b c", nil}, // single letters dropped
		{"Ω≈ç√ mixed ASCII", []string{"ω", "mixed", "ascii"}[1:]},
	}
	for _, c := range cases {
		got := tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStopwords(t *testing.T) {
	if !stopwords["the"] || !stopwords["www"] {
		t.Fatal("basic stopwords missing")
	}
	if stopwords["music"] {
		t.Fatal("'music' wrongly stopworded")
	}
}

// TestPorterVectors checks classic examples from Porter's paper.
func TestPorterVectors(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnShortWords(t *testing.T) {
	for _, w := range []string{"a", "go", "C3", "naïve"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestTerms(t *testing.T) {
	got := Terms("The conditional operators were related to the formalized music trails")
	want := []string{"condit", "oper", "relat", "formal", "music", "trail"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.ID("alpha")
	b := d.ID("beta")
	if a == b {
		t.Fatal("distinct terms got the same id")
	}
	if d.ID("alpha") != a {
		t.Fatal("re-interning changed the id")
	}
	if d.Term(a) != "alpha" {
		t.Fatalf("Term(%d) = %q", a, d.Term(a))
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup invented a term")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestVectorOps(t *testing.T) {
	d := NewDict()
	v1 := VectorFromCounts(d, map[string]int{"music": 2, "classic": 1})
	v2 := VectorFromCounts(d, map[string]int{"music": 1, "jazz": 3})
	if got := Dot(v1, v2); got != 2 {
		t.Fatalf("Dot = %v, want 2", got)
	}
	cos := Cosine(v1, v1)
	if math.Abs(cos-1) > 1e-12 {
		t.Fatalf("self-cosine = %v", cos)
	}
	if c := Cosine(v1, Vector{}); c != 0 {
		t.Fatalf("cosine with empty = %v", c)
	}
	sum := Add(v1, v2)
	if sum.Len() != 3 {
		t.Fatalf("Add produced %d components", sum.Len())
	}
	if got := Dot(sum, sum); got < Dot(v1, v1) {
		t.Fatal("Add lost mass")
	}
	n := v1.Normalize().Norm()
	if math.Abs(n-1) > 1e-12 {
		t.Fatalf("Normalize → norm %v", n)
	}
}

func TestCentroid(t *testing.T) {
	d := NewDict()
	v1 := VectorFromCounts(d, map[string]int{"x": 2})
	v2 := VectorFromCounts(d, map[string]int{"x": 4})
	c := Centroid([]Vector{v1, v2})
	if c.Len() != 1 || math.Abs(c.Weights[0]-3) > 1e-12 {
		t.Fatalf("Centroid = %v", c)
	}
	if Centroid(nil).Len() != 0 {
		t.Fatal("Centroid(nil) not empty")
	}
}

func TestTop(t *testing.T) {
	d := NewDict()
	v := VectorFromCounts(d, map[string]int{"a1": 5, "b2": 1, "c3": 9})
	ids, ws := v.Top(2)
	if len(ids) != 2 || ws[0] != 9 || ws[1] != 5 {
		t.Fatalf("Top = %v %v", ids, ws)
	}
	ids, _ = v.Top(10)
	if len(ids) != 3 {
		t.Fatalf("Top overflow = %d ids", len(ids))
	}
}

func TestCorpusTFIDF(t *testing.T) {
	d := NewDict()
	c := NewCorpus()
	common := VectorFromCounts(d, map[string]int{"common": 1, "rare": 1})
	for i := 0; i < 9; i++ {
		c.AddDoc(VectorFromCounts(d, map[string]int{"common": 1}))
	}
	c.AddDoc(common)
	if c.docs != 10 {
		t.Fatalf("Docs = %d", c.docs)
	}
	commonID, _ := d.Lookup("common")
	rareID, _ := d.Lookup("rare")
	if c.df[commonID] != 10 || c.df[rareID] != 1 {
		t.Fatalf("DF: common=%d rare=%d", c.df[commonID], c.df[rareID])
	}
	if idf(c.docs, c.df[rareID]) <= idf(c.docs, c.df[commonID]) {
		t.Fatal("rare term does not get higher IDF")
	}
	w := c.TFIDF(common)
	// rare component must outweigh common.
	var cw, rw float64
	for i, id := range w.IDs {
		if id == commonID {
			cw = w.Weights[i]
		}
		if id == rareID {
			rw = w.Weights[i]
		}
	}
	if rw <= cw {
		t.Fatalf("TFIDF: rare %v <= common %v", rw, cw)
	}
	if math.Abs(w.Norm()-1) > 1e-9 {
		t.Fatalf("TFIDF not normalized: %v", w.Norm())
	}
}

// Property: cosine is symmetric and bounded.
func TestQuickCosine(t *testing.T) {
	d := NewDict()
	f := func(a, b map[string]int) bool {
		// Keep counts positive.
		ca := map[string]int{}
		for k, v := range a {
			if v != 0 && len(k) > 0 {
				ca[k] = abs(v)%100 + 1
			}
		}
		cb := map[string]int{}
		for k, v := range b {
			if v != 0 && len(k) > 0 {
				cb[k] = abs(v)%100 + 1
			}
		}
		va := VectorFromCounts(d, ca)
		vb := VectorFromCounts(d, cb)
		c1 := Cosine(va, vb)
		c2 := Cosine(vb, va)
		return math.Abs(c1-c2) < 1e-9 && c1 >= 0 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Vector ids remain sorted after construction and Add.
func TestQuickVectorSorted(t *testing.T) {
	d := NewDict()
	f := func(a, b map[string]int) bool {
		va := VectorFromCounts(d, clean(a))
		vb := VectorFromCounts(d, clean(b))
		return sortedIDs(va) && sortedIDs(Add(va, vb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func clean(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		if k != "" {
			out[k] = abs(v)%10 + 1
		}
	}
	return out
}

func sortedIDs(v Vector) bool {
	for i := 1; i < len(v.IDs); i++ {
		if v.IDs[i-1] >= v.IDs[i] {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkTerms(b *testing.B) {
	doc := "The Memex system archives community browsing trails and mines them for topical themes using hierarchical classification and clustering algorithms over hypertext."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Terms(doc)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "formalize", "troubles", "authorities", "recommendation"}
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}
