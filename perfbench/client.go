package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/wire"
)

// api is the benchmark's HTTP client for one gbcd server.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	return &api{base: base, hc: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		},
	}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// call sends body (when non-nil) as JSON and returns the status code and
// the raw response body.
func (a *api) call(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// callJSON is call for endpoints that must answer 2xx, decoding into out.
func (a *api) callJSON(method, path string, body, out any) error {
	status, raw, err := a.call(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// topkResponse is the part of a /v1/topk answer the benchmark checks.
type topkResponse struct {
	Graph        string      `json:"graph"`
	GraphVersion int         `json:"graphVersion"`
	ServedFrom   string      `json:"servedFrom"`
	Result       wire.Result `json:"result"`
}

// topk returns the decoded answer when the status is 200; otherwise the
// response is nil and the status tells why.
func (a *api) topk(req topkRequest) (*topkResponse, int, error) {
	status, raw, err := a.call(http.MethodPost, "/v1/topk", req)
	if err != nil || status != http.StatusOK {
		return nil, status, err
	}
	var resp topkResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, status, fmt.Errorf("decode topk answer: %w", err)
	}
	return &resp, status, nil
}

// patchEdge and patchRequest mirror the PATCH /v1/graphs/{name} body.
type patchEdge struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
}

type patchRequest struct {
	Insert    []patchEdge `json:"insert,omitempty"`
	Delete    []patchEdge `json:"delete,omitempty"`
	IfVersion int         `json:"ifVersion,omitempty"`
}

type patchResponse struct {
	FromVersion int `json:"fromVersion"`
	Version     int `json:"version"`
}

func (a *api) patch(name string, d *graph.Delta, ifVersion int) (*patchResponse, int, error) {
	body := patchRequest{IfVersion: ifVersion}
	for _, e := range d.Insert {
		body.Insert = append(body.Insert, patchEdge{e.U, e.V})
	}
	for _, e := range d.Delete {
		body.Delete = append(body.Delete, patchEdge{e.U, e.V})
	}
	status, raw, err := a.call(http.MethodPatch, "/v1/graphs/"+name, body)
	if err != nil || status != http.StatusOK {
		return nil, status, err
	}
	var resp patchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, status, fmt.Errorf("decode patch answer: %w", err)
	}
	return &resp, status, nil
}

func (a *api) stats() (obs.Stats, error) {
	var s obs.Stats
	err := a.callJSON(http.MethodGet, "/v1/stats", nil, &s)
	return s, err
}

// warmSets returns the warm-set families the named graph holds.
func (a *api) warmSets(name string) (int, error) {
	var d struct {
		WarmSets int `json:"warmSets"`
	}
	err := a.callJSON(http.MethodGet, "/v1/graphs/"+name, nil, &d)
	return d.WarmSets, err
}

// graphRequest is the body of POST /v1/graphs for the two sources the
// benchmark uses: a .gbcsr path or the BA generator.
type graphRequest struct {
	Name      string `json:"name"`
	Path      string `json:"path,omitempty"`
	Generator string `json:"generator,omitempty"`
	N         int    `json:"n,omitempty"`
	Degree    int    `json:"degree,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
}
