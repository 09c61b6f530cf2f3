// Package client is the Go stand-in for the paper's browser applet: a thin
// typed wrapper over the server's HTTP/JSON API. Everything tunnels over
// plain HTTP (the paper's answer to firewalls and proxy restrictions).
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"memex/internal/core"
	"memex/internal/server"
	"memex/internal/themes"
)

// Client talks to one Memex server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g. "http://localhost:8600").
func New(base string) *Client {
	return &Client{base: base, hc: &http.Client{Timeout: 30 * time.Second}}
}

// WithHTTPClient substitutes the transport (tests, custom timeouts).
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

func (c *Client) postJSON(path string, body any, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResp(resp, out)
}

func (c *Client) get(path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResp(resp, out)
}

// APIError is a non-2xx answer from the server, carrying the status
// code and the Retry-After header so callers (the load harness, retry
// loops) can tell a polite admission shed — 429/503 with a backoff
// hint — from a genuinely failed request without string-matching the
// message.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// RetryAfter is the Retry-After header, "" when absent. Admission
	// rejections always carry it; its absence on a 429/503 is an SLO
	// violation the load harness counts.
	RetryAfter string
	// Msg is the server's error-envelope message, "" when undecodable.
	Msg string
}

// Error preserves the historical formats ("memex: <msg> (<code>)" /
// "memex: HTTP <code>") that tests and tools already match on.
func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("memex: %s (%d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("memex: HTTP %d", e.Status)
}

func decodeResp(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		ae := &APIError{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
		var e server.ErrBody
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			ae.Msg = e.Error
		}
		return ae
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Register creates the user account.
func (c *Client) Register(id int64, name string) error {
	return c.postJSON("/api/user", server.UserReq{ID: id, Name: name}, nil)
}

// Visit reports a page view. privacy is "off", "private" or "community".
// The user id rides the query string as well as the body: the server's
// per-client rate limiter keys on the `user` param, and a write that
// only names its user in the JSON would be throttled by remote host —
// one NAT gateway's worth of users sharing a single bucket.
func (c *Client) Visit(user int64, pageURL, referrer string, at time.Time, privacy string) error {
	return c.postJSON(fmt.Sprintf("/api/event?user=%d", user), server.EventReq{
		User: user, URL: pageURL, Referrer: referrer, Time: at, Privacy: privacy,
	}, nil)
}

// Bookmark files a page into a folder.
func (c *Client) Bookmark(user int64, pageURL, folder string, at time.Time) error {
	return c.postJSON(fmt.Sprintf("/api/bookmark?user=%d", user), server.BookmarkReq{
		User: user, URL: pageURL, Folder: folder, Time: at,
	}, nil)
}

// Correct fixes a classifier guess (the folder-tab cut/paste).
func (c *Client) Correct(user int64, pageURL, folder string) error {
	return c.postJSON("/api/correct", server.CorrectReq{User: user, URL: pageURL, Folder: folder}, nil)
}

// ImportBookmarks uploads a Netscape bookmark file.
func (c *Client) ImportBookmarks(user int64, r io.Reader) (int, error) {
	resp, err := c.hc.Post(fmt.Sprintf("%s/api/folders/import?user=%d", c.base, user), "text/html", r)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := decodeResp(resp, &out); err != nil {
		return 0, err
	}
	return out["imported"], nil
}

// ExportBookmarks downloads the user's folder tree as Netscape HTML.
func (c *Client) ExportBookmarks(user int64) (string, error) {
	resp, err := c.hc.Get(fmt.Sprintf("%s/api/folders/export?user=%d", c.base, user))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("memex: HTTP %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	return string(blob), err
}

// Search runs ranked full-text search.
func (c *Client) Search(user int64, query string, k int) ([]core.PageInfo, error) {
	var out []core.PageInfo
	err := c.get("/api/search", url.Values{
		"user": {strconv.FormatInt(user, 10)},
		"q":    {query},
		"k":    {strconv.Itoa(k)},
	}, &out)
	return out, err
}

// Trails replays the topical browsing context for a folder.
func (c *Client) Trails(user int64, folder string, k int) (core.TrailContext, error) {
	var out core.TrailContext
	err := c.get("/api/trails", url.Values{
		"user":   {strconv.FormatInt(user, 10)},
		"folder": {folder},
		"k":      {strconv.Itoa(k)},
	}, &out)
	return out, err
}

// Themes lists the community taxonomy.
func (c *Client) Themes() ([]core.ThemeInfo, error) {
	var out []core.ThemeInfo
	err := c.get("/api/themes", nil, &out)
	return out, err
}

// RebuildThemes triggers taxonomy consolidation and returns its stats.
func (c *Client) RebuildThemes() (themes.Stats, error) {
	var out themes.Stats
	resp, err := c.hc.Post(c.base+"/api/themes/rebuild", "application/json", nil)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	err = decodeResp(resp, &out)
	return out, err
}

// Recommend fetches collaborative recommendations; method "profile" (default)
// or "url" for the overlap baseline.
func (c *Client) Recommend(user int64, k int, method string) ([]core.PageInfo, error) {
	q := url.Values{
		"user": {strconv.FormatInt(user, 10)},
		"k":    {strconv.Itoa(k)},
	}
	if method != "" {
		q.Set("method", method)
	}
	var out []core.PageInfo
	err := c.get("/api/recommend", q, &out)
	return out, err
}

// Discover runs focused resource discovery for a folder.
func (c *Client) Discover(user int64, folder string, budget, k int) ([]core.PageInfo, error) {
	var out []core.PageInfo
	err := c.get("/api/discover", url.Values{
		"user":   {strconv.FormatInt(user, 10)},
		"folder": {folder},
		"budget": {strconv.Itoa(budget)},
		"k":      {strconv.Itoa(k)},
	}, &out)
	return out, err
}

// Profile fetches the user's theme-weight profile.
func (c *Client) Profile(user int64) (map[int]float64, error) {
	var out struct {
		User    int64           `json:"user"`
		Weights map[int]float64 `json:"weights"`
	}
	err := c.get("/api/profile", url.Values{"user": {strconv.FormatInt(user, 10)}}, &out)
	return out.Weights, err
}

// Usage fetches the user's browsing-time breakdown by topic folder (§1's
// "how is my ISP bill divided" question).
func (c *Client) Usage(user int64, since time.Time) ([]core.UsageSlice, error) {
	q := url.Values{"user": {strconv.FormatInt(user, 10)}}
	if !since.IsZero() {
		q.Set("since", since.Format(time.RFC3339))
	}
	var out []core.UsageSlice
	err := c.get("/api/usage", q, &out)
	return out, err
}

// Status fetches server statistics.
func (c *Client) Status() (core.Stats, error) {
	var out core.Stats
	err := c.get("/api/status", nil, &out)
	return out, err
}
