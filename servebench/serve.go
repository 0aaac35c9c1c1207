package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/server"
)

// instance is one booted server: the real server.New(...).Handler()
// behind an http.Server on a loopback listener, configured as
// `deptool serve` configures it.
type instance struct {
	srv   *server.Server
	reg   *obs.Registry
	store *jobs.WALStore // nil with the in-memory job store
	hs    *http.Server
	base  string
	done  chan error
	http  *http.Client
	setup time.Duration
}

// boot starts a server and times it from opening the job WAL and
// calling server.New to the first 200 from GET /readyz, replay of any
// existing logs included. dir == "" serves with the in-memory job store
// and no stream WAL; otherwise dir plays `deptool serve -jobs-dir`
// with the default flush policy (stream WAL sync per batch, job WAL
// group commit every 8 records or 100ms). wrap, when set, wraps the
// handler (tests use it to corrupt responses).
func boot(dir string, wrap func(http.Handler) http.Handler) (*instance, error) {
	start := time.Now()
	cfg := server.Config{
		Workers: runtime.NumCPU(),
		Obs:     obs.New(),
	}
	var store *jobs.WALStore
	if dir != "" {
		var err error
		store, err = jobs.OpenWAL(filepath.Join(dir, "jobs.wal"), jobs.WALOptions{})
		if err != nil {
			return nil, fmt.Errorf("open job WAL: %w", err)
		}
		cfg.JobStore = store
		cfg.StreamWALPath = filepath.Join(dir, "stream.wal")
	}
	srv := server.New(cfg)
	if err := srv.JobsErr(); err != nil {
		// The manager never took the store over, so it is ours to close.
		srv.Close()
		if store != nil {
			store.Close()
		}
		return nil, fmt.Errorf("job subsystem: %w", err)
	}
	if err := srv.StreamErr(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("stream subsystem: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{
		srv: srv, reg: cfg.Obs, store: store,
		hs:   &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	for {
		status, _, err := in.do(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Since(start) > 30*time.Second {
			in.stop()
			return nil, fmt.Errorf("server not ready after 30s (status %d, %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
	in.setup = time.Since(start)
	return in, nil
}

// do sends one request and reads the whole reply.
func (in *instance) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, in.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// stop drains and closes the server, waiting for its serve loop and
// job runners to exit; the job and stream logs are synced and closed.
func (in *instance) stop() error {
	in.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.http.CloseIdleConnections()
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// copyDir copies the regular files of src into a fresh dst, so every
// timed boot replays the same pre-written logs.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
