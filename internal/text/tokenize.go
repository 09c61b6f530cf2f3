// Package text provides the term-level machinery that every Memex mining
// module shares: tokenization, stopword filtering, Porter stemming, a
// term dictionary that interns strings to dense ids, and sparse TF/TF-IDF
// document vectors with cosine operations.
//
// Two ways to compare vectors. Cosine (and Dot) merge two sorted vectors:
// right for one comparison. Matrix prepares a fixed set of rows — theme
// centroids, cluster seeds — so that Cosines scores a document against all
// of them in one pass over the document's terms, with the row norms
// computed once; it accumulates each row's sum in term-id order, as the
// merge does, so its scores are the same bits as Cosine's. Centroid is the
// same idea for sums: one accumulate pass, not a chain of Add.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits raw page text into lowercase word tokens. Tokens are
// maximal runs of letters/digits; pure numbers shorter than 2 runes and
// single letters are dropped (they carry no topical signal).
func Tokenize(s string) []string {
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

// stopwords is the standard short English stop list (SMART subset). Stop
// words are removed before stemming.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`a about above after again against all am an and any are as at
be because been before being below between both but by can cannot could did do does doing down
during each few for from further had has have having he her here hers herself him himself his how
i if in into is it its itself just me more most my myself no nor not now of off on once only or
other our ours ourselves out over own same she should so some such than that the their theirs them
themselves then there these they this those through to too under until up very was we were what
when where which while who whom why will with would you your yours yourself yourselves
www http https com org net html htm page home click here site web`) {
		stopwords[w] = true
	}
}

// IsStopword reports whether tok is on the stop list.
func IsStopword(tok string) bool { return stopwords[tok] }

// Terms tokenizes, removes stopwords, and stems. This is the canonical
// text→terms path used by the indexer, classifier, and clusterer.
func Terms(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, t := range toks {
		if stopwords[t] {
			continue
		}
		st := Stem(t)
		if len(st) < 2 || stopwords[st] {
			continue
		}
		out = append(out, st)
	}
	return out
}

// TermCounts returns the term-frequency map of the text.
func TermCounts(s string) map[string]int {
	tf := map[string]int{}
	for _, t := range Terms(s) {
		tf[t]++
	}
	return tf
}
