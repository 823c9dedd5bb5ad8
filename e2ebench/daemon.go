package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"symcluster/internal/server"
)

// daemon is symclusterd served in-process: server.New behind a loopback
// HTTP listener, driven only through its public HTTP API.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// pollEvery is the async-job poll interval; it bounds how much of an
// async op's latency is poll granularity rather than daemon work.
const pollEvery = 5 * time.Millisecond

func bootDaemon(cfg server.Config) (*daemon, error) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close drains the daemon, stops the listener and waits for the serve
// loop to return.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	herr := d.hs.Shutdown(ctx)
	<-d.served
	cerr := d.srv.Close()
	d.client.CloseIdleConnections()
	return errors.Join(derr, herr, cerr)
}

// call sends one request and decodes a JSON body into out when the
// status is the wanted one. It returns the body length.
func (d *daemon) call(ctx context.Context, method, path, ctype string, body []byte, want int, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(raw), err
	}
	if resp.StatusCode != want {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return len(raw), nil
}

func (d *daemon) registerGraph(ctx context.Context, edges []byte) (server.GraphInfo, error) {
	var gi server.GraphInfo
	_, err := d.call(ctx, "POST", "/v1/graphs", "text/plain", edges, http.StatusCreated, &gi)
	return gi, err
}

// upload sends edges through a chunked upload session.
func (d *daemon) upload(ctx context.Context, edges []byte, chunk int) (server.UploadResult, error) {
	var ref server.UploadRef
	var res server.UploadResult
	if _, err := d.call(ctx, "POST", "/v1/graphs/uploads", "", nil, http.StatusCreated, &ref); err != nil {
		return res, err
	}
	for off := 0; off < len(edges); off += chunk {
		end := min(off+chunk, len(edges))
		if _, err := d.call(ctx, "POST", ref.Location, "text/plain", edges[off:end], http.StatusAccepted, nil); err != nil {
			return res, err
		}
	}
	_, err := d.call(ctx, "POST", ref.Location+"/finalize", "", nil, http.StatusCreated, &res)
	return res, err
}

// cluster runs one clustering request to completion: inline when sync,
// by polling the job when async. It returns the result and the bytes
// of the response that carried it.
func (d *daemon) cluster(ctx context.Context, req server.ClusterRequest) (*server.ClusterResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	if !req.Async {
		var resp server.ClusterResponse
		n, err := d.call(ctx, "POST", "/v1/cluster", "application/json", body, http.StatusOK, &resp)
		return &resp, n, err
	}
	var ref server.JobRef
	if _, err := d.call(ctx, "POST", "/v1/cluster", "application/json", body, http.StatusAccepted, &ref); err != nil {
		return nil, 0, err
	}
	for {
		var info server.JobInfo
		n, err := d.call(ctx, "GET", ref.Location, "", nil, http.StatusOK, &info)
		if err != nil {
			return nil, n, err
		}
		switch info.State {
		case "done":
			if info.Result == nil {
				return nil, n, fmt.Errorf("job %s done without a result", info.JobID)
			}
			return info.Result, n, nil
		case "failed", "canceled":
			return nil, n, fmt.Errorf("job %s ended %s: %s", info.JobID, info.State, info.Error)
		}
		select {
		case <-ctx.Done():
			return nil, n, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// scrape reads the named series of the /metrics exposition. Series the
// exposition lacks read as zero.
func (d *daemon) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
