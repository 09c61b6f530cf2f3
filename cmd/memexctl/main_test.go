package main

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestPrintProfileInThemeOrder(t *testing.T) {
	weights := map[int]float64{}
	for _, theme := range []int{12, 3, 40, 7, 25, 1, 9, 33, 18, 5} {
		weights[theme] = float64(theme) / 100
	}
	want := "theme 1    0.0100\ntheme 3    0.0300\ntheme 5    0.0500\ntheme 7    0.0700\ntheme 9    0.0900\n" +
		"theme 12   0.1200\ntheme 18   0.1800\ntheme 25   0.2500\ntheme 33   0.3300\ntheme 40   0.4000\n"
	var b strings.Builder
	printProfile(&b, weights)
	if b.String() != want {
		t.Fatalf("printed\n%s\nwant\n%s", b.String(), want)
	}
}

func TestTruncCutsAtRuneBoundary(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		want string
	}{
		{"Okapi", 5, "Okapi"},
		{"Okapis", 5, "Okap…"},
		{"Café au lait", 5, "Café…"},
		{"日本語のページ", 4, "日本語…"},
		{"日本語", 3, "日本語"},
	} {
		got := trunc(tc.in, tc.n)
		if got != tc.want || !utf8.ValidString(got) {
			t.Errorf("trunc(%q, %d) = %q, want %q", tc.in, tc.n, got, tc.want)
		}
	}
}
