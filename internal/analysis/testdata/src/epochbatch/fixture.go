// Fixture for the epochbatch analyzer: one page's derived records publish
// in one batch, and a finished batch is never reused.
package epochbatch

import "strconv"

type Batch struct{}

func (b *Batch) Put(k string, v []byte) {}
func (b *Batch) Publish() error         { return nil }

type Store struct{}

func (s *Store) Begin() *Batch { return &Batch{} }

func tfKey(page int64) string  { return "tf/" + strconv.FormatInt(page, 10) }
func lnkKey(page int64) string { return "lnk/" + strconv.FormatInt(page, 10) }
func rinKey(page int64) string { return "rin/" + strconv.FormatInt(page, 10) }

// The torn-publish bug: a snapshot between the two publishes sees the
// page's text without its adjacency.
func torn(s *Store, page int64, tf, lnk []byte) {
	b1 := s.Begin()
	b1.Put(tfKey(page), tf)
	b1.Publish()
	b2 := s.Begin()
	b2.Put(lnkKey(page), lnk) // want `derived lnk/ record for page page staged into b2`
	b2.Publish()
}

func reuseAfterPublish(s *Store, k string, v []byte) {
	b := s.Begin()
	b.Put(k, v)
	b.Publish()
	b.Put(k, v) // want `b\.Put after b\.Publish`
}

// The sanctioned shape (links.go publish): everything for the page in one
// batch.
func good(s *Store, page int64, tf, lnk, rin []byte) {
	b := s.Begin()
	b.Put(tfKey(page), tf)
	b.Put(lnkKey(page), lnk)
	b.Put(rinKey(page), rin)
	b.Publish()
}

// Re-beginning into the same variable starts a fresh batch.
func goodLoop(s *Store, pages []int64, blob []byte) {
	for _, p := range pages {
		b := s.Begin()
		b.Put(tfKey(p), blob)
		b.Put(lnkKey(p), blob)
		b.Publish()
	}
}

// Different pages may use different batches.
func goodTwoPages(s *Store, p1, p2 int64, blob []byte) {
	b1 := s.Begin()
	b1.Put(tfKey(p1), blob)
	b1.Put(lnkKey(p1), blob)
	b1.Publish()
	b2 := s.Begin()
	b2.Put(tfKey(p2), blob)
	b2.Put(lnkKey(p2), blob)
	b2.Publish()
}

func suppressed(s *Store, page int64, tf, lnk []byte) {
	b1 := s.Begin()
	b1.Put(tfKey(page), tf)
	b1.Publish()
	b2 := s.Begin()
	//memexvet:ignore epochbatch fixture: backfill path repairs records already torn on disk
	b2.Put(lnkKey(page), lnk)
	b2.Publish()
}
