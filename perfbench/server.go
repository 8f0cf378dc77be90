package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"driftclean"
	"driftclean/internal/kb"
	"driftclean/internal/serve"
)

// server is one driftserve process on a loopback port, with the single
// keep-alive connection the closed loop uses.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  string
	conn net.Conn // nil until the first request, and after an error
	br   *bufio.Reader
	req  []byte // the request being written, reused
	done chan struct{}
	err  error // the process's exit status, set before done closes
}

// startServer launches driftserve with the given mode flags and waits
// until it answers. procs > 0 sets the server's GOMAXPROCS.
func startServer(rc *runCtx, procs int, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(rc.dir, "driftserve.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(rc.bin, "driftserve"), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if procs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	}
	// The server must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting driftserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, log: logPath, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	if err := s.waitReady(60 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls GET /v1/generation, which answers in both modes once
// the server is listening.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if status, _, err := s.get("/v1/generation"); err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("driftserve exited before answering (%v); log:\n%s", s.err, s.logTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("driftserve did not answer within %v; log:\n%s", timeout, s.logTail())
		}
	}
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log) // best effort: only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop shuts the server down gracefully, kills it if it hangs, and waits
// for it to exit. Calling it again is harmless.
func (s *server) stop() {
	s.closeConn()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only once it has exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// get issues one GET and reads the full response body.
func (s *server) get(path string) (int, []byte, error) { return s.do("GET", path, nil) }

// do sends one request on the keep-alive connection and reads the whole
// response in the calling goroutine. net/http's Transport would pass each
// request between three goroutines; on a 2-CPU host their wake-ups cost
// as much as a cached answer and vary from run to run with where the
// scheduler puts them. driftserve keeps an idle connection open, so a
// failed request is not retried; the next one dials afresh.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	status, resp, err := s.roundTrip(method, path, body)
	if err != nil {
		s.closeConn()
	}
	return status, resp, err
}

func (s *server) roundTrip(method, path string, body []byte) (int, []byte, error) {
	if s.conn == nil {
		c, err := net.Dial("tcp", s.addr)
		if err != nil {
			return 0, nil, err
		}
		s.conn, s.br = c, bufio.NewReader(c)
	}
	s.req = append(s.req[:0], method...)
	s.req = append(s.req, ' ')
	s.req = append(s.req, path...)
	s.req = append(s.req, " HTTP/1.1\r\nHost: "...)
	s.req = append(s.req, s.addr...)
	if body != nil {
		s.req = append(s.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		s.req = strconv.AppendInt(s.req, int64(len(body)), 10)
	}
	s.req = append(s.req, "\r\n\r\n"...)
	s.req = append(s.req, body...)
	if _, err := s.conn.Write(s.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		s.closeConn()
	}
	return resp.StatusCode, b, err
}

func (s *server) closeConn() {
	if s.conn != nil {
		s.conn.Close()
		s.conn, s.br = nil, nil
	}
}

// checkResponse accepts a 200 with a parseable JSON body.
func checkResponse(status int, body []byte, err error) error {
	switch {
	case err != nil:
		return err
	case status != http.StatusOK:
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	case !json.Valid(body):
		return errors.New("response body is not valid JSON")
	}
	return nil
}

// query sends a serve request and returns its checked body.
func (s *server) query(r request) ([]byte, error) {
	status, body, err := s.get(r.path())
	if err := checkResponse(status, body, err); err != nil {
		return nil, fmt.Errorf("GET %s: %w", r.path(), err)
	}
	return body, nil
}

type ingestAck struct {
	Generation uint64 `json:"generation"`
	Ingested   int    `json:"ingested"`
}

// ingest posts an explicit sentence batch to /v1/ingest.
func (s *server) ingest(batch []driftclean.Sentence) (ingestAck, error) {
	b, err := json.Marshal(map[string]any{"sentences": batch})
	if err != nil {
		return ingestAck{}, err
	}
	status, body, err := s.do("POST", "/v1/ingest", b)
	if err := checkResponse(status, body, err); err != nil {
		return ingestAck{}, fmt.Errorf("POST /v1/ingest: %w", err)
	}
	var ack ingestAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return ingestAck{}, fmt.Errorf("POST /v1/ingest: %w", err)
	}
	return ack, nil
}

// stats returns the served KB's aggregate statistics.
func (s *server) stats() (kb.Stats, error) {
	body, err := s.query(request{endpoint: "stats"})
	if err != nil {
		return kb.Stats{}, err
	}
	var st serve.StatsResult
	if err := json.Unmarshal(body, &st); err != nil {
		return kb.Stats{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st.Stats, nil
}

// vars returns the per-endpoint counters of /debug/vars.
func (s *server) vars() (map[string]serve.EndpointStats, error) {
	status, body, err := s.get("/debug/vars")
	if err := checkResponse(status, body, err); err != nil {
		return nil, fmt.Errorf("GET /debug/vars: %w", err)
	}
	var doc struct {
		Driftserve serve.Metrics `json:"driftserve"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return doc.Driftserve.Endpoints, nil
}

// tool runs one of the program's command-line tools to completion.
func (rc *runCtx) tool(name string, args ...string) error {
	out, err := exec.Command(filepath.Join(rc.bin, name), args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %v: %w\n%s", name, args, err, out)
	}
	return nil
}
