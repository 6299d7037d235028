package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// The client protocol is newline-delimited JSON over TCP: one Request per
// line in, one Response per line out, strictly in order. It is deliberately
// trivial — cmd/ecload, experiment E16 and the cluster tests all need to
// drive a node from another OS process, and a line protocol keeps every side
// debuggable with netcat.

// Request is one client request to an ecnode.
type Request struct {
	// Op is "propose", "status" or "log".
	Op string `json:"op"`
	// Value is the payload to order (propose).
	Value string `json:"value,omitempty"`
}

// Response is one ecnode reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Propose: the log slot the value was committed in.
	Slot int `json:"slot,omitempty"`

	// Status fields.
	ID        int    `json:"id,omitempty"`
	N         int    `json:"n,omitempty"`
	Role      string `json:"role,omitempty"`
	Detector  string `json:"detector,omitempty"`
	Leader    int    `json:"leader,omitempty"`
	Suspected []int  `json:"suspected,omitempty"`
	Applied   int    `json:"applied,omitempty"`
	UptimeMS  int64  `json:"uptime_ms,omitempty"`
	// Transport is the node's heartbeat transport ("tcp" or "udp"); UDPOut
	// and UDPIn are its datagram counters (zero unless Transport is "udp").
	// E18's mixed-transport phase asserts on these to prove heartbeats
	// really left TCP.
	Transport string `json:"transport,omitempty"`
	UDPOut    int64  `json:"udp_out,omitempty"`
	UDPIn     int64  `json:"udp_in,omitempty"`

	// Log: the applied command payloads, in slot order.
	Entries []string `json:"entries,omitempty"`
}

// suspects reports whether the status response lists id as suspected.
func (r Response) suspects(id int) bool {
	for _, s := range r.Suspected {
		if s == id {
			return true
		}
	}
	return false
}

// Client is one connection to an ecnode's client port.
type Client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

// DialClient connects to a node's client port.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn, br: bufio.NewReader(conn)}, nil
}

// Addr returns the address the client dialed.
func (c *Client) Addr() string { return c.addr }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and reads its response, bounded by timeout. Any
// error leaves the connection in an unknown state; callers should Close and
// redial.
func (c *Client) Do(req Request, timeout time.Duration) (Response, error) {
	var resp Response
	if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return resp, err
	}
	data, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	if _, err := c.conn.Write(append(data, '\n')); err != nil {
		return resp, err
	}
	// ReadBytes, not a Scanner: a "log" response carrying thousands of
	// entries exceeds bufio.Scanner's default token limit.
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("cluster: bad response from %s: %w", c.addr, err)
	}
	return resp, nil
}

// oneShot dials, performs one request and closes.
func oneShot(addr string, req Request, timeout time.Duration) (Response, error) {
	c, err := DialClient(addr, timeout)
	if err != nil {
		return Response{}, err
	}
	defer c.Close()
	return c.Do(req, timeout)
}

// Status fetches a node's status.
func Status(addr string, timeout time.Duration) (Response, error) {
	return oneShot(addr, Request{Op: "status"}, timeout)
}

// ProposeValue submits one value through the node at addr and waits for it
// to commit.
func ProposeValue(addr, value string, timeout time.Duration) (Response, error) {
	return oneShot(addr, Request{Op: "propose", Value: value}, timeout)
}

// fetchLog fetches a node's applied log payloads.
func fetchLog(addr string, timeout time.Duration) ([]string, error) {
	resp, err := oneShot(addr, Request{Op: "log"}, timeout)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("cluster: log from %s: %s", addr, resp.Error)
	}
	return resp.Entries, nil
}
