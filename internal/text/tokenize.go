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
	"sync"
	"unicode"
)

// Tokenize splits raw page text into lowercase word tokens. Tokens are
// maximal runs of letters/digits; pure numbers shorter than 2 runes and
// single letters are dropped (they carry no topical signal). A token that
// needed no lower-casing is a slice of s and keeps s reachable: clone it
// before storing it anywhere long-lived.
func Tokenize(s string) []string {
	var tokens []string
	eachToken(s, func(tok string) { tokens = append(tokens, tok) })
	return tokens
}

// eachToken calls fn with each of s's tokens in order. Pure-ASCII input —
// the common page — is cut by slicing s, and only a token that holds an
// upper-case letter is copied to lower it; any byte >= 0x80 sends the whole
// input down the rune loop, so the two paths cannot disagree on a token
// that touches a non-ASCII rune.
func eachToken(s string, fn func(tok string)) {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			eachTokenRunes(s, fn)
			return
		}
	}
	start, upper := -1, false
	for i := 0; i <= len(s); i++ {
		if i < len(s) {
			c := s[i]
			isUpper := c-'A' < 26
			if isUpper || c-'a' < 26 || c-'0' < 10 {
				if start < 0 {
					start, upper = i, false
				}
				upper = upper || isUpper
				continue
			}
		}
		if start >= 0 && i-start >= 2 {
			tok := s[start:i]
			if upper {
				tok = strings.ToLower(tok)
			}
			fn(tok)
		}
		start = -1
	}
}

// eachTokenRunes is eachToken for any valid or invalid UTF-8: one rune at
// a time, every letter and digit lowered through unicode.ToLower.
func eachTokenRunes(s string, fn func(tok string)) {
	var b strings.Builder
	runes := 0
	flush := func() {
		if runes >= 2 {
			fn(b.String())
		}
		b.Reset()
		runes = 0
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

// termOf runs one token through the stop list and the stemmer: the term
// it is indexed under, or "" when it is dropped. The result never shares
// tok's memory — a token may be a slice of a whole page, and terms are
// interned for the life of the process.
func termOf(tok string) string {
	if stopwords[tok] {
		return ""
	}
	st := Stem(tok)
	if len(st) < 2 || stopwords[st] {
		return ""
	}
	if !stemmable(tok) {
		st = strings.Clone(st) // Stem handed tok itself back
	}
	return st
}

// Terms tokenizes, removes stopwords, and stems. This is the canonical
// text→terms path used by the indexer, classifier, and clusterer.
func Terms(s string) []string {
	var out []string
	eachToken(s, func(tok string) {
		if term := termOf(tok); term != "" {
			out = append(out, term)
		}
	})
	return out
}

// TermCounts returns the term-frequency map of the text.
func TermCounts(s string) map[string]int {
	tf := map[string]int{}
	eachToken(s, func(tok string) {
		if term := termOf(tok); term != "" {
			tf[term]++
		}
	})
	return tf
}

// maxMemoToken is the longest raw token a StemMemo remembers; with the
// entry cap it bounds the memo's bytes whatever the text holds.
const maxMemoToken = 64

// StemMemo resolves raw tokens to term ids in one dictionary, remembering
// termOf and the term's id per raw token, so text whose vocabulary repeats
// — a crawl of one site, a community's pages — pays the stop list, the
// Porter pass and the dictionary once per distinct token instead of once
// per occurrence. It is a cache with no durable home: bounded (at the cap
// it is emptied and refills from the text that follows), rebuilt on
// demand, and its answers are termOf's interned in the dictionary — which
// never renumbers a term — so Counts equals VectorFromCounts(d,
// TermCounts(s)). Safe for concurrent use.
type StemMemo struct {
	dict *Dict
	mu   sync.RWMutex
	ids  map[string]int32 // raw token → term id, -1 = dropped
	max  int
}

// NewStemMemo returns an empty memo over d holding at most maxEntries
// tokens.
func NewStemMemo(d *Dict, maxEntries int) *StemMemo {
	return &StemMemo{dict: d, ids: map[string]int32{}, max: max(1, maxEntries)}
}

// Counts returns the raw-count vector of s's terms, interning each term
// the dictionary lacks: the fetch path's one resolution of a page's terms
// to ids. One shared lock covers the page's lookups and one exclusive lock
// remembers the tokens it had not seen; the counting itself is a sort of
// the page's ids, with no map. The IDs are non-nil even for text with no
// terms.
func (m *StemMemo) Counts(s string) Vector {
	var ids []int32
	var unseen []string
	m.mu.RLock()
	eachToken(s, func(tok string) {
		id, ok := m.ids[tok]
		if !ok {
			unseen = append(unseen, tok)
		} else if id >= 0 {
			ids = append(ids, id)
		}
	})
	m.mu.RUnlock()
	if len(unseen) == 0 {
		return countIDs(ids)
	}
	resolved := make([]int32, len(unseen))
	for i, tok := range unseen {
		resolved[i] = -1
		if term := termOf(tok); term != "" {
			resolved[i] = m.dict.ID(term)
			ids = append(ids, resolved[i])
		}
	}
	m.mu.Lock()
	for i, tok := range unseen {
		if len(tok) > maxMemoToken {
			continue
		}
		if _, known := m.ids[tok]; known { // twice on this page, or another goroutine's
			continue
		}
		if len(m.ids) >= m.max {
			clear(m.ids)
		}
		m.ids[strings.Clone(tok)] = resolved[i]
	}
	m.mu.Unlock()
	return countIDs(ids)
}
