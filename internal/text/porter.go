package text

// Stem implements the classic Porter stemming algorithm (Porter, 1980),
// the stemmer used by the IR systems of the Memex era. The implementation
// follows the original five-step description; it operates on lowercase
// ASCII words and returns non-ASCII or very short words unchanged.
func Stem(word string) string {
	if !stemmable(word) {
		return word
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

// stemmable reports whether Stem works on word at all: longer than two
// letters and plain lowercase ASCII throughout. Anything else it returns
// as it came.
func stemmable(word string) bool {
	if len(word) <= 2 {
		return false
	}
	for i := 0; i < len(word); i++ {
		if c := word[i]; c < 'a' || c > 'z' {
			return false
		}
	}
	return true
}

// isCons reports whether w[i] is a consonant in Porter's sense.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	}
	return true
}

// measure computes m, the number of VC (vowel-consonant) sequences in w.
func measure(w []byte) int {
	n := len(w)
	i := 0
	// Skip initial consonants.
	for i < n && isCons(w, i) {
		i++
	}
	m := 0
	for {
		// Skip vowels.
		for i < n && !isCons(w, i) {
			i++
		}
		if i >= n {
			return m
		}
		m++
		for i < n && isCons(w, i) {
			i++
		}
		if i >= n {
			return m
		}
	}
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a double consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r when the stem before s has
// measure >= minM. Returns the (possibly) rewritten word and whether the
// suffix matched (regardless of the measure test).
func replaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) >= minM {
		return append(append([]byte{}, stem...), r...), true
	}
	return w, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		stem := w[:len(w)-3]
		if measure(stem) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	applied := false
	if hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		applied = true
	} else if hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		applied = true
	}
	if !applied {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleCons(w) && !hasSuffix(w, "l") && !hasSuffix(w, "s") && !hasSuffix(w, "z"):
		return w[:len(w)-1]
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, rule := range step2Rules {
		if hasSuffix(w, rule.s) {
			out, _ := replaceSuffix(w, rule.s, rule.r, 1)
			return out
		}
	}
	return w
}

var step3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, rule := range step3Rules {
		if hasSuffix(w, rule.s) {
			out, _ := replaceSuffix(w, rule.s, rule.r, 1)
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	// "ion" requires stem ending in s or t.
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if len(stem) > 0 && (stem[len(stem)-1] == 's' || stem[len(stem)-1] == 't') && measure(stem) > 1 {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if hasSuffix(w, "e") {
		stem := w[:len(w)-1]
		m := measure(stem)
		if m > 1 || (m == 1 && !endsCVC(stem)) {
			return stem
		}
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "ll") {
		return w[:len(w)-1]
	}
	return w
}
