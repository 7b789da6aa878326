package netchaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// ErrInjected marks a transport failure manufactured by the chaos
// layer (drop, lost reply, partition). Callers that want to tell
// injected faults from real ones can errors.Is against it; the cluster
// components treat both identically, which is the point.
var ErrInjected = errors.New("netchaos: injected network fault")

// maxBodyBuffer caps how much of a request body the transport buffers
// to support duplication. Control-plane messages are bounded far below
// this by the cluster wire caps.
const maxBodyBuffer = 32 << 20

// Transport is an http.RoundTripper that subjects every request leaving
// one named node to the chaos plan, then delivers it in-process to the
// handler registered under the request's URL host. Build one with
// Network.Transport.
type Transport struct {
	net  *Network
	from string
}

// RoundTrip implements http.RoundTripper: judge the message, then lose,
// hold, duplicate, or deliver it accordingly.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	to := req.URL.Host
	body, err := bufferBody(req)
	if err != nil {
		return nil, err
	}
	v := t.net.chaos.judge(t.from, to)

	switch {
	case v.partitioned:
		return nil, fmt.Errorf("%w: %s→%s partitioned", ErrInjected, t.from, to)
	case v.drop:
		return nil, fmt.Errorf("%w: %s→%s request dropped", ErrInjected, t.from, to)
	}

	if v.delay > 0 {
		timer := time.NewTimer(v.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}

	if v.dup {
		// The duplicate is a retransmit: delivered on its own detached
		// context (the original caller may be long gone), response
		// discarded. The receiver sees the message twice.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if resp, err := t.net.deliver(ctx, req.Method, req.URL.String(), req.Header, body); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBuffer))
				resp.Body.Close()
			}
		}()
	}

	resp, err := t.net.deliver(req.Context(), req.Method, req.URL.String(), req.Header, body)
	if err != nil {
		return nil, err
	}
	if v.dropReply {
		// The side effect landed; the answer did not. The caller sees
		// the same face as a dropped request — that ambiguity is the
		// fault being modeled.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBuffer))
		resp.Body.Close()
		return nil, fmt.Errorf("%w: %s→%s reply lost", ErrInjected, t.from, to)
	}
	return resp, nil
}

// bufferBody reads the request body up front so the message can be
// delivered more than once (duplicates, and the reply-lost path which
// must deliver before failing).
func bufferBody(req *http.Request) ([]byte, error) {
	if req.Body == nil {
		return nil, nil
	}
	defer req.Body.Close()
	b, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBuffer+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxBodyBuffer {
		return nil, fmt.Errorf("netchaos: request body exceeds %d bytes", maxBodyBuffer)
	}
	return b, nil
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// Network is an in-process cluster fabric for the simulation harness:
// nodes register their HTTP handlers under plain names ("c0", "w2"),
// and clients built with Client route "http://<name>/..." straight into
// the named handler — no sockets, no ports — with every message judged
// by the shared chaos core. Deregistering a node (a crash) makes
// messages to it fail like a connection refusal.
type Network struct {
	chaos *Chaos

	mu    sync.Mutex
	nodes map[string]http.Handler
}

// NewNetwork builds an in-process fabric over a chaos plan.
func NewNetwork(spec Spec) (*Network, error) {
	c, err := New(spec)
	if err != nil {
		return nil, err
	}
	return &Network{chaos: c, nodes: map[string]http.Handler{}}, nil
}

// Chaos exposes the shared decision core (partitions, quiesce, counters).
func (n *Network) Chaos() *Chaos { return n.chaos }

// Register attaches a node's handler under its name, replacing any
// previous registration (a restart).
func (n *Network) Register(name string, h http.Handler) {
	n.mu.Lock()
	n.nodes[name] = h
	n.mu.Unlock()
}

// Deregister detaches a node (a crash): in-flight and future messages
// to it fail as transport errors.
func (n *Network) Deregister(name string) {
	n.mu.Lock()
	delete(n.nodes, name)
	n.mu.Unlock()
}

// URL returns the base URL other nodes use to reach name.
func (n *Network) URL(name string) string { return "http://" + name }

// Transport builds the chaos round-tripper for messages leaving from.
func (n *Network) Transport(from string) *Transport {
	return &Transport{net: n, from: from}
}

// deliver hands one buffered request to the target node's handler.
func (n *Network) deliver(ctx context.Context, method, url string, header http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeader(req.Header, header)
	// Resolve at delivery time, not judge time: a node that crashed
	// while the message was held in the network refuses it, exactly
	// like a real dead peer.
	n.mu.Lock()
	h, ok := n.nodes[req.URL.Host]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netchaos: connect %s: connection refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	// A node that crashed while serving loses the connection: the side
	// effect may have landed, the reply never does.
	n.mu.Lock()
	_, still := n.nodes[req.URL.Host]
	n.mu.Unlock()
	if !still {
		return nil, fmt.Errorf("netchaos: read %s: connection reset", req.URL.Host)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// Client returns an http.Client whose requests leave from the named
// node through the chaos fabric.
func (n *Network) Client(from string) *http.Client {
	return &http.Client{Transport: n.Transport(from)}
}
