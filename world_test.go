package memex

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"testing"

	"memex/internal/sim"
	"memex/internal/webcorpus"
)

// TestWorldFingerprints pins the generated world byte for byte. Every
// benchmark number and every golden answer is measured on a generated
// world, so a change to any generated byte is a benchmark change
// (DESIGN.md §2); a speed-up of the generator must leave these hashes as
// they are. The interest weights are left out: the draws they drive are
// pinned through the trace, and TestInterestWeightsRepeat (internal/sim)
// checks that their bits repeat.
func TestWorldFingerprints(t *testing.T) {
	cases := []struct {
		name          string
		cfg           WorldConfig
		corpus, trace string
	}{
		{
			// bench/workloads.go's world.
			name:   "benchmark",
			cfg:    WorldConfig{Seed: 1, Web: webcorpus.Config{PagesPerLeaf: 800}, Surf: sim.Config{Users: 50, Days: 16}},
			corpus: "f95e2492289feed08f50b2023b6b386dc5553ae72a467f82acff5d966e8997c9",
			trace:  "1728ee0731727eb25b9ee5a22d608bcc3a190d27cd29a4487a7bda52539448bb",
		},
		{
			// E1's front-page-heavy world at tier-1's seed.
			name: "e1_front_pages",
			cfg: WorldConfig{
				Seed: 7,
				Web: webcorpus.Config{
					TopTopics: 8, SubPerTopic: 6, PagesPerLeaf: 30,
					FrontPageFrac: 0.7, FrontWords: 9, FrontTopicMix: 0.09,
				},
				Surf: sim.Config{Users: 60, Days: 25, BookmarkProb: 0.3},
			},
			corpus: "162947489c260bea56da2305b53193277d1153bd39e66f136adb33a428611251",
			trace:  "97e5105f122b0376d2729f593cce4784112ed96dbca7a3c86eabfc73a48fd69d",
		},
		{
			// More topics than name stems: the numbered names.
			name:   "numbered_names",
			cfg:    WorldConfig{Seed: 3, Web: webcorpus.Config{TopTopics: 13, SubPerTopic: 13, PagesPerLeaf: 5}, Surf: sim.Config{Users: 10, Days: 5}},
			corpus: "76c5b0c66d334580b3162b6047276dae3f5192bc1ce245d1a4ec9cdee307ca2c",
			trace:  "6164692bb83ea225fc3f195520034d51f27842669d035ee6a8a6ad3c6292e895",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := GenerateWorld(tc.cfg)
			if len(w.Trace.Visits) == 0 || len(w.Trace.Bookmarks) == 0 {
				t.Fatalf("empty trace: %d visits, %d bookmarks", len(w.Trace.Visits), len(w.Trace.Bookmarks))
			}
			if got := corpusFingerprint(w.Corpus); got != tc.corpus {
				t.Errorf("corpus fingerprint %s, want %s", got, tc.corpus)
			}
			if got := traceFingerprint(w.Trace); got != tc.trace {
				t.Errorf("trace fingerprint %s, want %s", got, tc.trace)
			}
		})
	}
}

// corpusFingerprint hashes every exported field of a corpus but its
// Config, maps in key order.
func corpusFingerprint(c *webcorpus.Corpus) string {
	h := sha256.New()
	for _, tp := range c.Topics {
		fmt.Fprintf(h, "topic %d %d %q %q %t %q\n", tp.ID, tp.Parent, tp.Name, tp.Path, tp.Leaf, tp.Vocab)
	}
	for _, p := range c.Pages {
		fmt.Fprintf(h, "page %d %q %q %q %d %t %v\n", p.ID, p.URL, p.Title, p.Text, p.Topic, p.Front, p.Links)
	}
	writeSorted(h, "url", c.ByURL)
	writeSorted(h, "leaf", c.LeafPages)
	return hex.EncodeToString(h.Sum(nil))
}

// traceFingerprint hashes every user but its interest weights, every
// visit and every bookmark.
func traceFingerprint(tr *sim.Trace) string {
	h := sha256.New()
	for _, u := range tr.Users {
		fmt.Fprintf(h, "user %d %q %t\n", u.ID, u.Name, u.Coarse)
		writeSorted(h, "folder", u.FolderOf)
	}
	for _, v := range tr.Visits {
		fmt.Fprintf(h, "visit %d %d %d %d %d\n", v.User, v.Page, v.Referrer, v.Time.UnixNano(), v.Topic)
	}
	for _, b := range tr.Bookmarks {
		fmt.Fprintf(h, "bookmark %d %d %q %d\n", b.User, b.Page, b.Folder, b.Time.UnixNano())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeSorted[K int | string, V any](w io.Writer, tag string, m map[K]V) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %#v %#v\n", tag, k, m[k])
	}
}
