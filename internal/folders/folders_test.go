package folders

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"
)

func entry(page int64, url string) Entry {
	return Entry{Page: page, URL: url, Title: "t" + url, Added: time.Unix(958383000, 0).UTC()}
}

func TestEnsureFindPath(t *testing.T) {
	tr := NewTree()
	f := tr.Ensure("/Music/Western Classical")
	if f.Path() != "/Music/Western Classical" {
		t.Fatalf("Path = %q", f.Path())
	}
	if tr.Find("/Music") == nil || tr.Find("/Music/Western Classical") != f {
		t.Fatal("Find broken")
	}
	if tr.Find("/Jazz") != nil {
		t.Fatal("Find invented a folder")
	}
	if tr.Find("/") != tr.Root || tr.Root.Path() != "/" {
		t.Fatal("root path wrong")
	}
	// Ensure is idempotent.
	if tr.Ensure("/Music/Western Classical") != f {
		t.Fatal("Ensure duplicated a folder")
	}
}

func TestAddAndGuessSemantics(t *testing.T) {
	tr := NewTree()
	tr.Add("/Music", entry(1, "http://a"))
	// A classifier guess for an already-filed page is ignored.
	g := entry(1, "http://a")
	g.Guessed = true
	tr.Add("/Travel", g)
	if f := tr.FolderOfPage(1); f == nil || f.Path() != "/Music" {
		t.Fatalf("guess overrode user placement: %v", f)
	}
	// A user placement replaces an existing guess.
	g2 := entry(2, "http://b")
	g2.Guessed = true
	tr.Add("/Travel", g2)
	tr.Add("/Music", entry(2, "http://b"))
	if f := tr.FolderOfPage(2); f.Path() != "/Music" {
		t.Fatalf("user placement did not win: %v", f.Path())
	}
	if tr.Count() != 2 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

// folderPaths returns every folder path except the root's, sorted.
func folderPaths(tr *Tree) []string {
	var out []string
	tr.Walk(func(f *Folder) {
		if f.Parent != nil {
			out = append(out, f.Path())
		}
	})
	sort.Strings(out)
	return out
}

func TestFoldersAndEntries(t *testing.T) {
	tr := NewTree()
	tr.Add("/Music/Classical", entry(1, "http://a"))
	tr.Add("/Music/Jazz", entry(2, "http://b"))
	tr.Add("/Travel", entry(3, "http://c"))
	paths := folderPaths(tr)
	want := []string{"/Music", "/Music/Classical", "/Music/Jazz", "/Travel"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Fatalf("Folders = %v", paths)
	}
	// Subtree entries include nested folders.
	es := tr.Entries("/Music")
	if len(es) != 2 {
		t.Fatalf("Entries(/Music) = %d", len(es))
	}
	if tr.Entries("/missing") != nil {
		t.Fatal("Entries of missing folder not nil")
	}
}

func TestRemovePage(t *testing.T) {
	tr := NewTree()
	tr.Add("/A", entry(1, "http://a"))
	if n := tr.RemovePage(1); n != 1 {
		t.Fatalf("RemovePage = %d", n)
	}
	if tr.Count() != 0 {
		t.Fatal("entry survived removal")
	}
	if n := tr.RemovePage(1); n != 0 {
		t.Fatal("second removal found something")
	}
}

func TestNetscapeRoundTrip(t *testing.T) {
	tr := NewTree()
	tr.Add("/Music/Western Classical", entry(1, "http://classical.example.org/"))
	tr.Add("/Music", entry(2, "http://music.example.org/?a=b&c=d"))
	tr.Add("/Travel", entry(3, "http://travel.example.org/"))
	tr.Ensure("/Empty")

	titles := map[int64]string{1: "Classical", 2: "Music & <more>", 3: ""}
	var buf bytes.Buffer
	if err := ExportNetscape(tr, func(e Entry) string { return titles[e.Page] }, &buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "NETSCAPE-Bookmark-file-1") {
		t.Fatal("missing doctype")
	}
	if !strings.Contains(out, "&amp;c=d") {
		t.Fatal("URL not escaped")
	}

	got, err := ImportNetscape(&buf)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	wantFolders := folderPaths(tr)
	gotFolders := folderPaths(got)
	if strings.Join(wantFolders, ",") != strings.Join(gotFolders, ",") {
		t.Fatalf("folders: %v vs %v", wantFolders, gotFolders)
	}
	if got.Count() != 3 {
		t.Fatalf("Count = %d", got.Count())
	}
	es := got.Entries("/Music")
	urls := map[string]bool{}
	for _, e := range es {
		urls[e.URL] = true
	}
	if !urls["http://classical.example.org/"] || !urls["http://music.example.org/?a=b&c=d"] {
		t.Fatalf("imported URLs wrong: %v", urls)
	}
	// Each entry carries the title the lookup gave its page, not its own.
	for _, p := range []string{"/Music/Western Classical", "/Music", "/Travel"} {
		for _, e := range got.Find(p).Entries {
			for _, want := range tr.Find(p).Entries {
				if want.URL == e.URL && e.Title != titles[want.Page] {
					t.Fatalf("%s exported as %q, want %q", e.URL, e.Title, titles[want.Page])
				}
			}
		}
	}
	// Timestamps survive.
	for _, e := range es {
		if e.Added.Unix() != 958383000 {
			t.Fatalf("ADD_DATE lost: %v", e.Added)
		}
	}
}

func TestImportRealWorldFragment(t *testing.T) {
	src := `<!DOCTYPE NETSCAPE-Bookmark-file-1>
<TITLE>Bookmarks</TITLE>
<H1>Bookmarks for Soumen</H1>
<DL><p>
    <DT><H3 ADD_DATE="958300000">Research</H3>
    <DL><p>
        <DT><A HREF="http://www.vldb.org/" ADD_DATE="958300100">VLDB</A>
        <DT><H3>Mining</H3>
        <DL><p>
            <DT><A HREF="http://www.kdnuggets.com/">KD Nuggets</A>
        </DL><p>
    </DL><p>
    <DT><A HREF="http://slashdot.org/" ADD_DATE="958300200">News for nerds</A>
</DL><p>`
	tr, err := ImportNetscape(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if tr.Find("/Research/Mining") == nil {
		t.Fatalf("nested folder lost; folders = %v", folderPaths(tr))
	}
	if len(tr.Find("/Research").Entries) != 1 {
		t.Fatal("folder entry count wrong")
	}
	if len(tr.Root.Entries) != 1 || tr.Root.Entries[0].Title != "News for nerds" {
		t.Fatalf("root entries: %+v", tr.Root.Entries)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := ImportNetscape(strings.NewReader("not a bookmark file at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}
