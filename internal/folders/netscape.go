package folders

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The Netscape bookmark file format is the de-facto interchange format of
// the era (also read by Internet Explorer's import): a NETSCAPE-Bookmark-
// file-1 HTML document with nested <DL> lists, <H3> folder headings, and
// <A HREF=... ADD_DATE=...> bookmark anchors. Memex imports existing
// browser bookmarks through this format and can export its folder tree back.

// ExportNetscape writes the tree in Netscape bookmark-file format, each
// entry titled with title(entry).
func ExportNetscape(t *Tree, title func(Entry) string, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "<!DOCTYPE NETSCAPE-Bookmark-file-1>")
	fmt.Fprintln(bw, "<!-- This is an automatically generated file. -->")
	fmt.Fprintln(bw, "<TITLE>Bookmarks</TITLE>")
	fmt.Fprintln(bw, "<H1>Bookmarks</H1>")
	exportFolder(bw, t.Root, title, 0)
	return bw.Flush()
}

func exportFolder(w *bufio.Writer, f *Folder, title func(Entry) string, depth int) {
	ind := strings.Repeat("    ", depth)
	fmt.Fprintf(w, "%s<DL><p>\n", ind)
	for _, e := range f.Entries {
		fmt.Fprintf(w, "%s    <DT><A HREF=\"%s\" ADD_DATE=\"%d\">%s</A>\n",
			ind, escapeHTML(e.URL), e.Added.Unix(), escapeHTML(title(e)))
	}
	for _, ch := range f.Children {
		fmt.Fprintf(w, "%s    <DT><H3>%s</H3>\n", ind, escapeHTML(ch.Name))
		exportFolder(w, ch, title, depth+1)
	}
	fmt.Fprintf(w, "%s</DL><p>\n", ind)
}

// ImportNetscape parses a Netscape bookmark file into a fresh tree.
// Page ids are not present in the format; imported entries get Page 0 and
// are identified by URL until the server resolves them.
func ImportNetscape(r io.Reader) (*Tree, error) {
	t := NewTree()
	cur := t.Root
	var stack []*Folder
	var pendingFolder string
	sawHeader := false

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "<!DOCTYPE NETSCAPE-BOOKMARK"):
			sawHeader = true
		case strings.Contains(upper, "<H3"):
			pendingFolder = stripTags(line)
		case strings.Contains(upper, "<DL"):
			if pendingFolder != "" {
				child := &Folder{Name: pendingFolder, Parent: cur}
				cur.Children = append(cur.Children, child)
				stack = append(stack, cur)
				cur = child
				pendingFolder = ""
			} else if cur == t.Root && len(stack) == 0 && !rootOpened(t) {
				// The outermost <DL> corresponds to the root itself.
				stack = append(stack, nil)
			} else {
				stack = append(stack, cur)
			}
		case strings.Contains(upper, "</DL"):
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top != nil {
					cur = top
				}
			}
		case strings.Contains(upper, "<A HREF="):
			url := attrValue(line, "HREF")
			title := stripTags(line)
			added := time.Unix(0, 0).UTC()
			if ts := attrValue(line, "ADD_DATE"); ts != "" {
				if sec, err := strconv.ParseInt(ts, 10, 64); err == nil {
					added = time.Unix(sec, 0).UTC()
				}
			}
			cur.Entries = append(cur.Entries, Entry{
				URL: url, Title: title, Added: added,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("folders: import: %w", err)
	}
	if !sawHeader && t.Count() == 0 && len(t.Root.Children) == 0 {
		return nil, fmt.Errorf("folders: not a Netscape bookmark file")
	}
	return t, nil
}

// rootOpened reports whether the root's DL was already consumed; the root
// carries no marker, so we track it via a sentinel in the stack instead.
// (The root DL is only ever the first one.)
func rootOpened(*Tree) bool { return false }

// attrValue extracts the value of attr="..." (case-insensitive) from line.
func attrValue(line, attr string) string {
	upper := strings.ToUpper(line)
	key := strings.ToUpper(attr) + "=\""
	i := strings.Index(upper, key)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return unescapeEntities(rest[:j])
}

func unescapeEntities(s string) string {
	s = strings.ReplaceAll(s, "&lt;", "<")
	s = strings.ReplaceAll(s, "&gt;", ">")
	s = strings.ReplaceAll(s, "&quot;", "\"")
	s = strings.ReplaceAll(s, "&amp;", "&")
	return s
}

// stripTags removes HTML tags and unescapes basic entities.
func stripTags(line string) string {
	var b strings.Builder
	in := false
	for _, r := range line {
		switch {
		case r == '<':
			in = true
		case r == '>':
			in = false
		case !in:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSpace(b.String())
	s = strings.ReplaceAll(s, "&amp;", "&")
	s = strings.ReplaceAll(s, "&lt;", "<")
	s = strings.ReplaceAll(s, "&gt;", ">")
	s = strings.ReplaceAll(s, "&quot;", "\"")
	return s
}

func escapeHTML(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	s = strings.ReplaceAll(s, "\"", "&quot;")
	return s
}
