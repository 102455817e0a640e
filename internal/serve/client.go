package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Client speaks the job-server API over TCP or a unix socket. The address
// grammar matches the CLIs' -listen/-connect flags: "unix:/path",
// "tcp:host:port", a bare path (unix), or host:port (tcp).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at addr. No connection is
// made until the first request.
func NewClient(addr string) *Client {
	network, target := ParseNetAddr(addr)
	hc := &http.Client{}
	base := "http://" + target
	if network == "unix" {
		// The URL host is a placeholder; every connection dials the socket.
		base = "http://emmserved"
		hc.Transport = &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", target)
			},
		}
	}
	return &Client{base: base, hc: hc}
}

// ParseNetAddr splits a server address into the (network, address) pair
// net.Listen/net.Dial expect: an explicit "unix:" or "tcp:" prefix wins, a
// value containing a path separator is a unix socket, anything else is a
// TCP host:port. The client dials and cmd/emmserved listens through it, so
// both sides read an address the same way.
func ParseNetAddr(s string) (network, addr string) {
	switch {
	case strings.HasPrefix(s, "unix:"):
		return "unix", s[len("unix:"):]
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", s[len("tcp:"):]
	case strings.Contains(s, "/"):
		return "unix", s
	default:
		return "tcp", s
	}
}

// Submit posts a job. With wait, the call blocks until the verdict is in
// (or the context ends server-side).
func (c *Client) Submit(req Request, wait bool) (*JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	url := c.base + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return decodeStatus(resp)
}

// Job fetches a job's status; with wait it blocks until done.
func (c *Client) Job(id string, wait bool) (*JobStatus, error) {
	url := c.base + "/v1/jobs/" + id
	if wait {
		url += "?wait=1"
	}
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	return decodeStatus(resp)
}

// Events copies the job's live JSONL progress stream to w until the job
// finishes.
func (c *Client) Events(id string, w io.Writer) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Stats fetches the server's cache and queue counters.
func (c *Client) Stats() (map[string]json.RawMessage, error) {
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthy probes /healthz until ok or the deadline passes — the handshake
// CLIs use after forking a server.
func (c *Client) Healthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.hc.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not healthy after %s: %w", timeout, err)
			}
			return fmt.Errorf("server not healthy after %s", timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func decodeStatus(resp *http.Response) (*JobStatus, error) {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
