package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/kvstore"
)

// netscapeFile renders a bookmark file with one folder per name, holding
// the given URLs, in order.
func netscapeFile(folders []string, urls [][]string) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<DL><p>\n")
	for i, name := range folders {
		fmt.Fprintf(&b, "<DT><H3>%s</H3>\n<DL><p>\n", name)
		for _, url := range urls[i] {
			fmt.Fprintf(&b, "<DT><A HREF=\"%s\" ADD_DATE=\"1000\">%s</A>\n", url, url)
		}
		b.WriteString("</DL><p>\n")
	}
	b.WriteString("</DL><p>\n")
	return b.String()
}

// TestOneCommitPerWrite: every acknowledged foreground write — the rows
// of the pages it names for the first time included — is one kvstore
// commit, and its log bytes are bounded. The source serves nothing, so
// the analyzers commit nothing, and GC is off, so nothing folds.
func TestOneCommitPerWrite(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), Source: oneSource{}, GCInterval: -1, Now: func() time.Time { return tBase }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const known = "http://zoo.example/okapi"
	if err := e.RecordVisit(2, known, "", tBase, events.Community); err != nil {
		t.Fatal(err)
	}
	fifty := make([]string, 50)
	for i := range fifty {
		fifty[i] = fmt.Sprintf("http://import.example/p%d", i)
	}
	file := netscapeFile([]string{"imports"}, [][]string{fifty})
	cases := []struct {
		name     string
		op       func() error
		walBytes uint64 // the measured value plus at most 5 %
	}{
		{"register", func() error { return e.RegisterUser(1, "alice") }, 48},                                                       // 46
		{"visit known page", func() error { return e.RecordVisit(1, known, "", tBase, events.Community) }, 61},                     // 59
		{"visit new page", func() error { return e.RecordVisit(1, "http://zoo.example/tapir", "", tBase, events.Community) }, 114}, // 109
		{"visit new page, new referrer", func() error {
			return e.RecordVisit(1, "http://zoo.example/duiker", "http://zoo.example/bongo", tBase, events.Community)
		}, 168}, // 160
		{"bookmark new page", func() error { return e.AddBookmark(1, "http://zoo.example/quagga", "/animals", tBase) }, 120}, // 116
		{"correct", func() error { return e.CorrectPlacement(1, known, "/animals/forest") }, 74},                             // 72
		{"import 50 new pages", func() error {
			n, err := e.ImportBookmarks(1, strings.NewReader(file))
			if err == nil && n != 50 {
				err = fmt.Errorf("imported %d entries, want 50", n)
			}
			return err
		}, 6236}, // 6 001: 4 946 before titles, plus their 1 240 bytes and 50 length bytes
	}
	for _, tc := range cases {
		e.DrainBackground()
		before := e.Status().KV
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e.DrainBackground()
		after := e.Status().KV
		commits, wal := after.Commits-before.Commits, after.WALBytes-before.WALBytes
		t.Logf("%s: %d commits, %d WAL bytes", tc.name, commits, wal)
		if commits != 1 {
			t.Errorf("%s: %d commits, want 1", tc.name, commits)
		}
		if wal > tc.walBytes {
			t.Errorf("%s: %d WAL bytes, want at most %d", tc.name, wal, tc.walBytes)
		}
	}
}

// TestRefusedWriteLeavesNoRow: a write the store or the engine refuses
// leaves no page row, no bookmark row and the folder tree as it was — an
// import whose third entry is refused files none of the first two — and
// a reopen finds the same.
func TestRefusedWriteLeavesNoRow(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Source: oneSource{}, GCInterval: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	if err := e.AddBookmark(1, "http://zoo.example/okapi", "/animals", tBase); err != nil {
		t.Fatal(err)
	}
	type state struct {
		pages, pageRows, bookmarkRows int
		export                        string
	}
	stateOf := func() state {
		var buf bytes.Buffer
		if err := e.ExportBookmarks(1, &buf); err != nil {
			t.Fatal(err)
		}
		return state{e.Status().Pages, tableLen(t, e, pagesPrefix), tableLen(t, e, bookmarksPrefix), buf.String()}
	}
	want := stateOf()
	tooLarge := func(err error) bool { return kvstore.ErrTooLarge(err) }
	invalid := func(err error) bool { return errors.Is(err, ErrInvalid) }
	long := strings.Repeat("x", kvstore.MaxKV)
	importing := func(file string) func() error {
		return func() error {
			n, err := e.ImportBookmarks(1, strings.NewReader(file))
			if n != 0 {
				t.Errorf("a refused import reports %d entries imported", n)
			}
			return err
		}
	}
	cases := []struct {
		name    string
		op      func() error
		refusal func(error) bool
	}{
		{"bookmark with an oversize folder", func() error { return e.AddBookmark(1, "http://zoo.example/tapir", "/"+long, tBase) }, tooLarge},
		{"import whose third entry is oversize", importing(netscapeFile(
			[]string{"good", long},
			[][]string{{"http://zoo.example/a", "http://zoo.example/b"}, {"http://zoo.example/c"}})), tooLarge},
		{"import with an entry of no URL", importing(netscapeFile(
			[]string{"good"}, [][]string{{"http://zoo.example/d", ""}})), invalid},
	}
	for _, tc := range cases {
		if err := tc.op(); !tc.refusal(err) {
			t.Fatalf("%s: err = %v, want a refusal", tc.name, err)
		}
		if got := stateOf(); got != want {
			t.Fatalf("%s left %+v, want %+v", tc.name, got, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(); got != want {
		t.Fatalf("after reopen: %+v, want %+v", got, want)
	}
}
