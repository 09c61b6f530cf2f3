// Command memexctl is a command-line client for a running memexd: the
// scriptable stand-in for the paper's applet tabs.
//
// Usage:
//
//	memexctl -server http://localhost:8600 <command> [args]
//
// Commands:
//
//	register <id> <name>               create a user
//	visit <user> <url> [privacy]       log a page view (community|private|off)
//	bookmark <user> <url> <folder>     file a page into a folder
//	correct <user> <url> <folder>      fix a classifier guess
//	search <user> <query...>           ranked full-text search
//	trails <user> <folder>             replay the topical browsing context
//	themes                             list community themes
//	rebuild                            rebuild community themes now
//	recommend <user> [profile|url]     collaborative recommendations
//	discover <user> <folder>           focused resource discovery
//	profile <user>                     theme-weight interest profile
//	usage <user>                       browsing time divided by topic (§1)
//	status                             server statistics
//	export <user>                      dump bookmarks as Netscape HTML
//	import <user> <file>               import a Netscape bookmark file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"memex"
)

func main() {
	server := flag.String("server", "http://localhost:8600", "memexd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "memexctl: a command is required (see -h)")
		os.Exit(2)
	}
	c := memex.NewClient(*server)
	if err := run(c, args); err != nil {
		fmt.Fprintf(os.Stderr, "memexctl: %v\n", err)
		os.Exit(1)
	}
}

func run(c *memex.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "register":
		if len(rest) != 2 {
			return fmt.Errorf("usage: register <id> <name>")
		}
		id, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		return c.Register(id, rest[1])
	case "visit":
		if len(rest) < 2 {
			return fmt.Errorf("usage: visit <user> <url> [privacy]")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		privacy := "community"
		if len(rest) > 2 {
			privacy = rest[2]
		}
		return c.Visit(user, rest[1], "", time.Now(), privacy)
	case "bookmark":
		if len(rest) != 3 {
			return fmt.Errorf("usage: bookmark <user> <url> <folder>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		return c.Bookmark(user, rest[1], rest[2], time.Now())
	case "correct":
		if len(rest) != 3 {
			return fmt.Errorf("usage: correct <user> <url> <folder>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		return c.Correct(user, rest[1], rest[2])
	case "search":
		if len(rest) < 2 {
			return fmt.Errorf("usage: search <user> <query...>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		hits, err := c.Search(user, strings.Join(rest[1:], " "), 10)
		if err != nil {
			return err
		}
		for i, h := range hits {
			fmt.Printf("%2d. %-50s %.3f  %s\n", i+1, trunc(h.Title, 50), h.Score, h.URL)
		}
		return nil
	case "trails":
		if len(rest) != 2 {
			return fmt.Errorf("usage: trails <user> <folder>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		ctx, err := c.Trails(user, rest[1], 15)
		if err != nil {
			return err
		}
		fmt.Printf("trail context for %s: %d pages, %d transitions\n",
			ctx.Folder, len(ctx.Pages), len(ctx.Edges))
		for _, p := range ctx.Pages {
			fmt.Printf("  %-50s %.3f  %s\n", trunc(p.Title, 50), p.Score, p.URL)
		}
		if len(ctx.Popular) > 0 {
			fmt.Println("popular near this trail:")
			for _, p := range ctx.Popular {
				fmt.Printf("  %-50s %s\n", trunc(p.Title, 50), p.URL)
			}
		}
		return nil
	case "themes":
		ths, err := c.Themes()
		if err != nil {
			return err
		}
		for _, th := range ths {
			indent := ""
			if th.Parent >= 0 {
				indent = "  "
			}
			fmt.Printf("%s[%d] %-30s docs=%-4d users=%-3d %v\n",
				indent, th.ID, th.Label, th.Docs, th.Users, th.Signature)
		}
		return nil
	case "rebuild":
		st, err := c.RebuildThemes()
		if err != nil {
			return err
		}
		fmt.Printf("themes=%d roots=%d leaves=%d refined=%d foldersMerged=%d\n",
			st.Themes, st.Roots, st.Leaves, st.Refined, st.MergedIn)
		return nil
	case "recommend":
		if len(rest) < 1 {
			return fmt.Errorf("usage: recommend <user> [profile|url]")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		method := ""
		if len(rest) > 1 {
			method = rest[1]
		}
		recs, err := c.Recommend(user, 10, method)
		if err != nil {
			return err
		}
		for i, r := range recs {
			fmt.Printf("%2d. %-50s %s\n", i+1, trunc(r.Title, 50), r.URL)
		}
		return nil
	case "discover":
		if len(rest) != 2 {
			return fmt.Errorf("usage: discover <user> <folder>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		out, err := c.Discover(user, rest[1], 300, 10)
		if err != nil {
			return err
		}
		for i, r := range out {
			fmt.Printf("%2d. %-50s %.3f  %s\n", i+1, trunc(r.Title, 50), r.Score, r.URL)
		}
		return nil
	case "profile":
		if len(rest) != 1 {
			return fmt.Errorf("usage: profile <user>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		w, err := c.Profile(user)
		if err != nil {
			return err
		}
		printProfile(os.Stdout, w)
		return nil
	case "usage":
		if len(rest) != 1 {
			return fmt.Errorf("usage: usage <user>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		slices, err := c.Usage(user, time.Time{})
		if err != nil {
			return err
		}
		for _, s := range slices {
			fmt.Printf("%-30s %5.1f%%  %8s  %d visits\n",
				s.Folder, 100*s.Share, s.Time.Round(time.Second), s.Visits)
		}
		return nil
	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Printf("users=%d pages=%d indexed=%d visits=%d bookmarks=%d queue=%d dropped=%d themes=%d disk=%dB\n",
			st.Users, st.Pages, st.PagesIndexed, st.Visits, st.Bookmarks,
			st.QueueDepth, st.EventsDropped, st.Themes, st.DiskBytes)
		return nil
	case "export":
		if len(rest) != 1 {
			return fmt.Errorf("usage: export <user>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		out, err := c.ExportBookmarks(user)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	case "import":
		if len(rest) != 2 {
			return fmt.Errorf("usage: import <user> <file>")
		}
		user, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		f, err := os.Open(rest[1])
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := c.ImportBookmarks(user, f)
		if err != nil {
			return err
		}
		fmt.Printf("imported %d bookmarks\n", n)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printProfile writes a profile's theme weights one a line, in theme id
// order, so two runs over one archive print the same lines.
func printProfile(w io.Writer, weights map[int]float64) {
	themes := make([]int, 0, len(weights))
	for theme := range weights {
		themes = append(themes, theme)
	}
	sort.Ints(themes)
	for _, theme := range themes {
		fmt.Fprintf(w, "theme %-4d %.4f\n", theme, weights[theme])
	}
}

// trunc shortens s to at most n runes, the last of them an ellipsis when
// it cuts; it never splits a rune.
func trunc(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	return string([]rune(s)[:n-1]) + "…"
}
