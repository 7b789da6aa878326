package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one slipd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

// startDaemon launches slipd with a fresh data dir and a free loopback
// port. Only -addr, -data-dir, -coordinator, -worker and -join are ever
// passed, so the benchmark keeps working as other flags come and go.
func startDaemon(e env, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.build, "run"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(e.build, "run"), "slipd-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "slipd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-data-dir", filepath.Join(dir, "data")}, extra...)
	cmd := exec.Command(e.slipd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Die with the benchmark, even if it is killed before its cleanup runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dataDir: dir, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// settleDisk fsyncs dir, which commits the filesystem's pending metadata.
// Set-up fsyncs a fresh journal, and that fsync would otherwise also wait
// for work the benchmark itself left pending: its build, or the data dirs
// of the instances it just stopped.
func settleDisk(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	_ = f.Sync() // best effort: set-up is still measured without it
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// readyPoll is the /readyz polling interval. Set-up takes milliseconds,
// so a coarser poll would show up as noise in setup_s.
const readyPoll = 250 * time.Microsecond

// setupRepeats is how many times a run measures set-up; setup_s is the
// median. In a service session the last instance started serves the load.
const setupRepeats = 21

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("slipd exited before ready: %v (log: %s)", d.waitErr, d.logTail())
		default:
		}
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("slipd at %s not ready after %s (log: %s)", d.base, timeout, d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dataDir, "slipd.log"))
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// stop asks slipd to drain (SIGTERM), kills it if the drain overruns, and
// waits for the process before deleting its data dir.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
	os.RemoveAll(d.dataDir)
}

// kill ends slipd at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	os.RemoveAll(d.dataDir)
}

func (d *daemon) hwm() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// clients are the benchmark's two HTTP paths to slipd: requests share at
// most nproc keep-alive connections, and every SSE stream gets its own
// connection, closed when the stream ends, so a waiting stream never
// holds a connection a request needs.
type clients struct {
	req, stream *http.Client
}

func newClients() clients {
	n := runtime.NumCPU()
	return clients{
		req: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
		}},
		stream: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			DisableKeepAlives: true, DisableCompression: true,
		}},
	}
}

func (c clients) close() {
	c.req.CloseIdleConnections()
	c.stream.CloseIdleConnections()
}

// jobView is the part of slipd's JobView the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

type submitResp struct {
	Job    jobView `json:"job"`
	Cached bool    `json:"cached"`
}

// errShed marks a submission slipd refused with 503 or 429.
var errShed = errors.New("submission shed")

// submit POSTs a job spec and returns the created view.
func (c clients) submit(base string, spec []byte) (submitResp, error) {
	var out submitResp
	resp, err := c.req.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusOK:
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return out, fmt.Errorf("%w: %d %s", errShed, resp.StatusCode, strings.TrimSpace(string(body)))
	default:
		return out, fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return out, json.Unmarshal(body, &out)
}

// awaitState follows GET /jobs/{id}/events until the terminal state event
// and returns that state and when it arrived.
func (c clients) awaitState(ctx context.Context, base, id string) (string, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("GET /jobs/%s/events: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "state" {
			return v, time.Now(), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, fmt.Errorf("events for %s ended without a state event", id)
}

// result fetches a job's result bytes; a non-200 answer is an error.
func (c clients) result(base, id string) ([]byte, error) {
	resp, err := c.req.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s/result: %d %s", id, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (c clients) view(base, id string) (jobView, error) {
	var v jobView
	err := c.getJSON(base+"/jobs/"+id, &v)
	return v, err
}

func (c clients) getJSON(url string, v any) error {
	resp, err := c.req.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkResult is the correctness gate on result bytes: the simulator's
// own verification line, and the committed digest when one is given.
func checkResult(body []byte, wantDigest string) error {
	if !bytes.Contains(body, []byte("verification: PASSED")) {
		return fmt.Errorf("result lacks \"verification: PASSED\": %.120q", body)
	}
	if wantDigest != "" && digest(body) != wantDigest {
		return fmt.Errorf("result digest %s, reference %s", digest(body), wantDigest)
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// promSeries is one /metrics scrape: series (name plus labels, as
// exposed) → value.
type promSeries map[string]float64

func (c clients) scrape(base string) (promSeries, error) {
	resp, err := c.req.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name (any labels), and reports whether
// the metric was exposed at all: a series a later version deletes reads
// as absent, not as an error.
func (p promSeries) sum(name string) (float64, bool) {
	total, found := 0.0, false
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
			found = true
		}
	}
	return total, found
}

// delta is after − before for a metric, and whether it was exposed.
func delta(before, after promSeries, name string) (float64, bool) {
	a, ok := after.sum(name)
	b, _ := before.sum(name)
	return a - b, ok
}
