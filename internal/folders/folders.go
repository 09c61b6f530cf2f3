// Package folders implements the editable folder/topic space behind
// Memex's folder tab (Figure 1): per-user folder trees holding bookmarks,
// cut/paste reorganization, classifier-guess marking with reinforce/correct
// feedback, and import/export of the Netscape bookmark-file HTML format so
// existing browser bookmarks flow in and out of Memex.
package folders

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Entry is one bookmark or classified page inside a folder.
type Entry struct {
	Page  int64
	URL   string
	Title string
	Added time.Time
	// Guessed marks entries placed by the classifier (shown with '?' in the
	// paper's UI) rather than by the user.
	Guessed bool
}

// Folder is one node of a user's topic tree.
type Folder struct {
	Name     string
	Parent   *Folder
	Children []*Folder
	Entries  []Entry
}

// Tree is a user's folder space. The root folder is unnamed.
type Tree struct {
	Root *Folder
}

// NewTree returns a tree with an empty root.
func NewTree() *Tree {
	return &Tree{Root: &Folder{}}
}

// Path returns the folder's /-separated path from the root.
func (f *Folder) Path() string {
	if f.Parent == nil {
		return "/"
	}
	parts := []string{}
	for cur := f; cur.Parent != nil; cur = cur.Parent {
		parts = append(parts, cur.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

// Ensure returns the folder at path, creating missing components.
// Paths are /-separated; "/" is the root.
func (t *Tree) Ensure(path string) *Folder {
	cur := t.Root
	for _, part := range splitPath(path) {
		var next *Folder
		for _, ch := range cur.Children {
			if ch.Name == part {
				next = ch
				break
			}
		}
		if next == nil {
			next = &Folder{Name: part, Parent: cur}
			cur.Children = append(cur.Children, next)
			sort.Slice(cur.Children, func(i, j int) bool {
				return cur.Children[i].Name < cur.Children[j].Name
			})
		}
		cur = next
	}
	return cur
}

// Find returns the folder at path, or nil.
func (t *Tree) Find(path string) *Folder {
	cur := t.Root
	for _, part := range splitPath(path) {
		var next *Folder
		for _, ch := range cur.Children {
			if ch.Name == part {
				next = ch
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// Add places an entry in the folder at path (created if needed). Guessed
// entries come from the classifier demon; user entries are authoritative.
func (t *Tree) Add(path string, e Entry) {
	f := t.Ensure(path)
	// A user placement replaces a guess for the same page anywhere.
	if !e.Guessed {
		t.RemovePage(e.Page)
	} else {
		// Don't let a guess duplicate or override an existing placement.
		if t.FolderOfPage(e.Page) != nil {
			return
		}
	}
	f.Entries = append(f.Entries, e)
}

// RemovePage removes every entry for page from the whole tree, returning
// the number removed.
func (t *Tree) RemovePage(page int64) int {
	removed := 0
	t.Walk(func(f *Folder) {
		out := f.Entries[:0]
		for _, e := range f.Entries {
			if e.Page == page {
				removed++
				continue
			}
			out = append(out, e)
		}
		f.Entries = out
	})
	return removed
}

// MovePage is the cut/paste operation on a single bookmark: it reassigns
// page to the folder at dst and clears its Guessed flag (the user has now
// confirmed the placement) — this is the reinforcement signal the paper's
// classifier learns from.
func (t *Tree) MovePage(page int64, dst string) error {
	var found *Entry
	t.Walk(func(f *Folder) {
		for i := range f.Entries {
			if f.Entries[i].Page == page {
				found = &f.Entries[i]
			}
		}
	})
	if found == nil {
		return fmt.Errorf("folders: page %d not filed anywhere", page)
	}
	e := *found
	e.Guessed = false
	t.RemovePage(page)
	t.Ensure(dst).Entries = append(t.Ensure(dst).Entries, e)
	return nil
}

// FolderOfPage returns the folder currently holding page, or nil.
func (t *Tree) FolderOfPage(page int64) *Folder {
	var out *Folder
	t.Walk(func(f *Folder) {
		for _, e := range f.Entries {
			if e.Page == page {
				out = f
			}
		}
	})
	return out
}

// Walk visits every folder in depth-first order (root first).
func (t *Tree) Walk(fn func(*Folder)) {
	var rec func(*Folder)
	rec = func(f *Folder) {
		fn(f)
		for _, ch := range f.Children {
			rec(ch)
		}
	}
	rec(t.Root)
}

// Entries returns all entries in the subtree rooted at path (including
// nested folders). Unknown paths return nil.
func (t *Tree) Entries(path string) []Entry {
	f := t.Find(path)
	if f == nil {
		return nil
	}
	var out []Entry
	var rec func(*Folder)
	rec = func(f *Folder) {
		out = append(out, f.Entries...)
		for _, ch := range f.Children {
			rec(ch)
		}
	}
	rec(f)
	return out
}

// Count returns the total number of entries in the tree.
func (t *Tree) Count() int {
	n := 0
	t.Walk(func(f *Folder) { n += len(f.Entries) })
	return n
}
