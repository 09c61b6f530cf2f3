package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"memex/internal/events"
	"memex/internal/sim"
	"memex/internal/webcorpus"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_answers.txt from this build's answers")

const goldenPath = "testdata/golden_answers.txt"

// heldSource is corpusSource behind a gate: every Lookup waits until the
// gate is closed.
type heldSource struct {
	corpusSource
	gate chan struct{}
}

func (s heldSource) Lookup(url string) (Content, bool) {
	<-s.gate
	return s.corpusSource.Lookup(url)
}

// goldenWorld is the seeded world TestGoldenAnswers replays: small enough
// to replay in well under a second, large enough that every user has
// several folders, classifiers, themes and peers.
func goldenWorld() (*webcorpus.Corpus, *sim.Trace) {
	c := webcorpus.Generate(webcorpus.Config{Seed: 45, TopTopics: 3, SubPerTopic: 3, PagesPerLeaf: 20})
	return c, sim.Simulate(c, sim.Config{Seed: 46, Users: 8, Days: 5})
}

// openGolden opens an engine with one analyzer and a queue that holds the
// whole trace, so nothing is shed and only that analyzer names pages the
// foreground did not.
func openGolden(t *testing.T, dir string, src PageSource, tr *sim.Trace) *Engine {
	t.Helper()
	now := tr.Visits[len(tr.Visits)-1].Time.Add(time.Hour)
	e, err := Open(Config{
		Dir:       dir,
		Source:    src,
		Now:       func() time.Time { return now },
		workers:   1,
		queueSize: 2 * (len(tr.Visits) + len(tr.Bookmarks)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// replayGolden replays the world into a fresh engine in dir. The source is
// held until the foreground has recorded every bookmark and visit, so the
// foreground names every trace page first, in trace order, and the one
// analyzer then names the out-links, in queue order.
func replayGolden(t *testing.T, dir string, c *webcorpus.Corpus, tr *sim.Trace) *Engine {
	t.Helper()
	src := heldSource{corpusSource{c}, make(chan struct{})}
	e := openGolden(t, dir, src, tr)
	for _, u := range tr.Users {
		if err := e.RegisterUser(u.ID, u.Name); err != nil {
			t.Fatal(err)
		}
	}
	last := tr.Visits[len(tr.Visits)-1].Time
	for _, b := range tr.Bookmarks {
		if b.Time.After(last) {
			continue
		}
		if err := e.AddBookmark(b.User, c.Page(b.Page).URL, b.Folder, b.Time); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range tr.Visits {
		ref := ""
		if v.Referrer != 0 {
			ref = c.Page(v.Referrer).URL
		}
		if err := e.RecordVisit(v.User, c.Page(v.Page).URL, ref, v.Time, events.Community); err != nil {
			t.Fatal(err)
		}
	}
	close(src.gate)
	e.DrainBackground()
	if st := e.Status(); st.EventsDropped != 0 {
		t.Fatalf("the replay shed %d events", st.EventsDropped)
	}
	e.RetrainClassifiers()
	e.RebuildThemes()
	return e
}

// goldenFolders lists each user's folders, as the trace filed them by the
// time of its last visit, in path order.
func goldenFolders(tr *sim.Trace) map[int64][]string {
	last := tr.Visits[len(tr.Visits)-1].Time
	seen := map[int64]map[string]bool{}
	out := map[int64][]string{}
	for _, b := range tr.Bookmarks {
		if b.Time.After(last) {
			continue
		}
		if seen[b.User] == nil {
			seen[b.User] = map[string]bool{}
		}
		if !seen[b.User][b.Folder] {
			seen[b.User][b.Folder] = true
			out[b.User] = append(out[b.User], b.Folder)
		}
	}
	for _, fs := range out {
		sort.Strings(fs)
	}
	return out
}

// goldenQueries are fixed searches over the world's vocabulary: for each
// leaf topic, its two most frequent terms, and one of them with a term of
// its parent topic.
func goldenQueries(c *webcorpus.Corpus) []string {
	var qs []string
	for _, tp := range c.Topics {
		if !tp.Leaf {
			continue
		}
		qs = append(qs, tp.Vocab[0]+" "+tp.Vocab[1], tp.Vocab[0]+" "+c.Topics[tp.Parent].Vocab[0])
	}
	return qs
}

// scoreBits writes a score exactly: the hex of its IEEE-754 bits.
func scoreBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func writePages(b *bytes.Buffer, head string, ps []PageInfo) {
	b.WriteString(head)
	for _, p := range ps {
		fmt.Fprintf(b, " %s=%s", p.URL, scoreBits(p.Score))
	}
	b.WriteByte('\n')
}

// goldenAnswers writes one line per answer for every user of the trace:
// searches, windowed searches, each folder's trails (pages, edges as URL
// pairs, popular pages), both recommenders and the usage breakdown, and
// then, when discover is set, each folder's discovery, which fetches pages
// and so runs last.
func goldenAnswers(e *Engine, c *webcorpus.Corpus, tr *sim.Trace, discover bool) []byte {
	var b bytes.Buffer
	folders := goldenFolders(tr)
	queries := goldenQueries(c)
	first, last := tr.Visits[0].Time, tr.Visits[len(tr.Visits)-1].Time
	mid := first.Add(last.Sub(first) / 2)
	url := func(id int64) string {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.meta[id].url
	}
	for _, u := range tr.Users {
		for _, q := range queries {
			writePages(&b, fmt.Sprintf("search user=%d q=%q:", u.ID, q), e.Search(u.ID, q, 5))
			writePages(&b, fmt.Sprintf("searchwhen user=%d q=%q:", u.ID, q), e.SearchWhen(u.ID, q, 5, first, mid))
		}
		for _, f := range folders[u.ID] {
			tc := e.Trails(u.ID, f, 5)
			writePages(&b, fmt.Sprintf("trails user=%d folder=%s pages:", u.ID, f), tc.Pages)
			fmt.Fprintf(&b, "trails user=%d folder=%s edges:", u.ID, f)
			for _, ed := range tc.Edges {
				fmt.Fprintf(&b, " %s>%s", url(ed[0]), url(ed[1]))
			}
			b.WriteByte('\n')
			writePages(&b, fmt.Sprintf("trails user=%d folder=%s popular:", u.ID, f), tc.Popular)
		}
		writePages(&b, fmt.Sprintf("recommend user=%d peers:", u.ID), e.Recommend(u.ID, 8, false))
		writePages(&b, fmt.Sprintf("recommend user=%d profile:", u.ID), e.Recommend(u.ID, 8, true))
		fmt.Fprintf(&b, "usage user=%d:", u.ID)
		for _, s := range e.UsageBreakdown(u.ID, time.Time{}) {
			fmt.Fprintf(&b, " %s=%d/%d/%s", s.Folder, s.Visits, s.Time, scoreBits(s.Share))
		}
		b.WriteByte('\n')
	}
	if discover {
		for _, u := range tr.Users {
			for _, f := range folders[u.ID] {
				writePages(&b, fmt.Sprintf("discover user=%d folder=%s:", u.ID, f), e.Discover(u.ID, f, 40, 5))
			}
		}
	}
	return b.Bytes()
}

// TestGoldenAnswers pins every mining answer of a seeded world, scores to
// the bit, in testdata/golden_answers.txt: a change that moves any answer
// shows here as a diff (go test -run TestGoldenAnswers -update rewrites
// the file). The world is replayed at one analyzer with the source held
// until the foreground is done, so page ids, and with them every tie-break,
// repeat from run to run. A second replay must answer the same, and so
// must its archive after Close and a reopen (retrained and rebuilt, and
// without Discover, which would fetch). The file is compared on amd64
// only; other architectures run the replay and reopen checks alone.
func TestGoldenAnswers(t *testing.T) {
	c, tr := goldenWorld()
	e := replayGolden(t, t.TempDir(), c, tr)
	got := goldenAnswers(e, c, tr, true)
	e.Close()
	if bytes.Count(got, []byte("\n")) < 100 {
		t.Fatalf("only %d answer lines", bytes.Count(got, []byte("\n")))
	}
	// The file holds amd64's score bits. Elsewhere (arm64, ppc64, s390x)
	// the compiler may fuse x*y+z into one instruction that rounds once,
	// so there the build is only checked against itself below.
	if runtime.GOARCH == "amd64" {
		if *update {
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("answers moved:\n%s", firstDiff(want, got))
		}
	} else {
		t.Logf("%s: not comparing against %s, which holds amd64's bits", runtime.GOARCH, goldenPath)
	}

	dir := t.TempDir()
	e = replayGolden(t, dir, c, tr)
	again := goldenAnswers(e, c, tr, false)
	if !bytes.HasPrefix(got, again) {
		t.Fatalf("a second replay answered differently:\n%s", firstDiff(got, again))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openGolden(t, dir, corpusSource{c}, tr)
	defer e.Close()
	e.DrainBackground()
	e.RetrainClassifiers()
	e.RebuildThemes()
	if reopened := goldenAnswers(e, c, tr, false); !bytes.Equal(reopened, again) {
		t.Fatalf("the reopened archive answered differently:\n%s", firstDiff(again, reopened))
	}
}

// firstDiff names the first line where got leaves want.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d\nwant %s\ngot  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
