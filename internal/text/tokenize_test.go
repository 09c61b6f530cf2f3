package text

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode"

	"memex/internal/webcorpus"
)

// referenceTokenize is the tokenizer as it stood before the ASCII fast
// path — one rune at a time through a strings.Builder — kept as the
// reference Tokenize must equal token for token.
func referenceTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	runes := 0
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		n := runes
		b.Reset()
		runes = 0
		if n < 2 {
			return
		}
		tokens = append(tokens, tok)
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			runes++
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// referenceTermCounts is TermCounts as it stood: reference tokens, stop
// list, Stem, stop list again.
func referenceTermCounts(s string) map[string]int {
	tf := map[string]int{}
	for _, t := range referenceTokenize(s) {
		if stopwords[t] {
			continue
		}
		st := Stem(t)
		if len(st) < 2 || stopwords[st] {
			continue
		}
		tf[st]++
	}
	return tf
}

func TestTokenizeMatchesRuneReference(t *testing.T) {
	inputs := []string{
		"",
		"a",
		"ab",
		"plain lowercase ascii words only",
		"Mixed CASE Words and camelCase, SHOUTING; Title Case.",
		"digits 7 42 2021 x1 1x a1b2c3 007",
		"a b c d I x single letters drop, ab stays",
		"under_score and-hyphen and/slash tab\tnewline\nend",
		"trailing token",
		"  leading and trailing spaces  ",
		"http://www.example.org/travel/p0.html?q=Go+Lang#frag",
		// Non-ASCII letters whose lower-case form has another byte length.
		"İstanbul İ İİ aİ İa", // U+0130 (2 bytes) lowers to i (1 byte)
		"GROẞE ẞ ẞẞ Straße",   // U+1E9E (3 bytes) lowers to ß (2 bytes)
		"Ω≈ç√ mixed ASCII ÀÉÎ naïve café",
		"日本語 の テキスト と English 混在 テスト1 ２０２１", // CJK, full-width digits
		"한국어 텍스트",
		"emoji 🙂 between 🙂🙂 words",
		// Invalid UTF-8: a lone continuation byte, a truncated sequence, 0xff.
		"bad\x80byte in\xc3 the\xff middle ok",
		"\xe2\x82 truncated euro then Word",
		"ascii then \xf0\x9f\x99 cut emoji",
	}
	for _, in := range inputs {
		if got, want := Tokenize(in), referenceTokenize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, reference says %q", in, got, want)
		}
	}
	// Seeded random strings: ASCII only (the fast path end to end), and a
	// mix that drops in multi-byte runes and stray bytes.
	rng := rand.New(rand.NewSource(1))
	ascii := []byte("abcXYZ019 .,-_/\t\n")
	extra := []string{"İ", "ẞ", "é", "日", "🙂", "\x80", "\xff", "\xc3"}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			if i%2 == 1 && rng.Intn(8) == 0 {
				b.WriteString(extra[rng.Intn(len(extra))])
			} else {
				b.WriteByte(ascii[rng.Intn(len(ascii))])
			}
		}
		in := b.String()
		if got, want := Tokenize(in), referenceTokenize(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference says %q", in, got, want)
		}
	}
}

// corpusTexts returns what the engine tokenizes for each generated page.
func corpusTexts(pagesPerLeaf int) []string {
	c := webcorpus.Generate(webcorpus.Config{Seed: 5, PagesPerLeaf: pagesPerLeaf})
	texts := make([]string, len(c.Pages))
	for i, p := range c.Pages {
		texts[i] = p.Title + " " + p.Text
	}
	return texts
}

// TestStemMemoMatchesStem: over the corpus vocabulary — plus text the fast
// path does not take and tokens too long to remember — the memo's counts
// equal the reference's, with a memo so small that it is emptied and
// refilled hundreds of times on the way, and never over its cap.
func TestStemMemoMatchesStem(t *testing.T) {
	texts := append(corpusTexts(4),
		"İstanbul GROẞE Straße 日本語 テスト running runs ran",
		"bad\x80byte in\xc3 the\xff middle ok",
		"short "+strings.Repeat("long", 40)+" and "+strings.Repeat("long", 40)+" twice",
	)
	for _, max := range []int{1, 7, 1 << 16} {
		m := NewStemMemo(max)
		for round := 0; round < 2; round++ { // the second round is all hits at the big size
			for _, s := range texts {
				got, want := m.TermCounts(s), referenceTermCounts(s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("max=%d: StemMemo.TermCounts(%.60q…) = %v, reference says %v", max, s, got, want)
				}
				if pure := TermCounts(s); !reflect.DeepEqual(pure, want) {
					t.Fatalf("TermCounts(%.60q…) = %v, reference says %v", s, pure, want)
				}
				if len(m.terms) > max {
					t.Fatalf("memo holds %d tokens, cap %d", len(m.terms), max)
				}
			}
		}
		for tok, term := range m.terms {
			if len(tok) > maxMemoToken {
				t.Fatalf("memo remembered a %d-byte token", len(tok))
			}
			if want := termOf(tok); term != want {
				t.Fatalf("memo[%q] = %q, termOf says %q", tok, term, want)
			}
		}
	}
}

// TestStemMemoConcurrent hammers one small memo from 8 goroutines (run
// under -race): lookups, inserts and the emptying at the cap interleave,
// and every answer still equals the reference.
func TestStemMemoConcurrent(t *testing.T) {
	texts := corpusTexts(2)
	want := make([]map[string]int, len(texts))
	for i, s := range texts {
		want[i] = referenceTermCounts(s)
	}
	m := NewStemMemo(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range texts {
				j := (i*7 + g*13) % len(texts)
				if got := m.TermCounts(texts[j]); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("goroutine %d: TermCounts(page %d) = %v, want %v", g, j, got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkCounts map[string]int

// BenchmarkTermCounts tokenizes generated corpus pages (≈136 tokens, ≈56
// terms each): the pure function the bench ladder and the classifier call,
// and the engine's path through a warm memo.
func BenchmarkTermCounts(b *testing.B) {
	texts := corpusTexts(10)
	tokens, terms := 0, 0
	for _, s := range texts {
		tokens += len(Tokenize(s))
		terms += len(TermCounts(s))
	}
	shape := fmt.Sprintf("tokens=%d/terms=%d", tokens/len(texts), terms/len(texts))
	b.Run("pure/"+shape, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkCounts = TermCounts(texts[i%len(texts)])
		}
	})
	b.Run("memo/"+shape, func(b *testing.B) {
		m := NewStemMemo(1 << 16)
		for _, s := range texts {
			m.TermCounts(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkCounts = m.TermCounts(texts[i%len(texts)])
		}
	})
}
