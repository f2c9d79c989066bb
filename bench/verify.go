package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/model"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/traffic"
)

// Output verification runs before any timing: every corpus key is sent
// to the running system and its answer compared with an in-process
// Model.PredictOne on the same artifact.

// verifyKeys is how many distinct corpus keys a run checks (the
// engine's whole default keyspace).
const verifyKeys = 256

// wirePredict mirrors the serve front's predict request and response.
type wirePredict struct {
	Payloads map[string]json.RawMessage `json:"payloads"`
	Tags     []string                   `json:"tags,omitempty"`
}

type wireAnswer struct {
	Model   string       `json:"model"`
	Version int          `json:"version"`
	Outputs model.Output `json:"outputs"`
}

// parseBody turns a predict body into a validated record, the way the
// serve handler does.
func parseBody(body []byte, sch *schema.Schema) (*record.Record, error) {
	var req wirePredict
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	rec, err := record.ParsePayloads(req.Payloads, sch)
	if err != nil {
		return nil, err
	}
	if err := record.Validate(rec, sch); err != nil {
		return nil, err
	}
	rec.Tags = req.Tags
	return rec, nil
}

// decisions strips the probabilities from an output, leaving what the
// model decided.
func decisions(out model.Output) model.Output {
	d := make(model.Output, len(out))
	for task, o := range out {
		o.Probs, o.TokenBitProbs, o.SelectProbs = nil, nil, nil
		d[task] = o
	}
	return d
}

// distinctKeyRequests returns one predict request per corpus key of the
// seed's corpus, spread uniformly over deployments.
func distinctKeyRequests(seed int64, deployments []string) ([]traffic.Request, error) {
	eng, err := traffic.NewEngine(traffic.Config{Workload: "uniform", Seed: seed, Deployments: deployments})
	if err != nil {
		return nil, err
	}
	stream, err := eng.StreamN(1, 32*verifyKeys)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []traffic.Request
	for _, req := range stream {
		if !seen[req.Key] {
			seen[req.Key] = true
			out = append(out, req)
		}
	}
	if len(out) != verifyKeys {
		return nil, fmt.Errorf("verify: stream covers %d of %d keys", len(out), verifyKeys)
	}
	return out, nil
}

// verifyOutputs sends every corpus key through front and compares the
// answer with ref. On the f64 plane the outputs must be identical; on
// f32 every decision must agree. It returns the number of requests
// sent.
func verifyOutputs(front string, ref *model.Model, seed int64, w workloadDef) (int, error) {
	reqs, err := distinctKeyRequests(seed, w.Deployments)
	if err != nil {
		return 0, err
	}
	sch := ref.Prog.Schema
	for i, req := range reqs {
		rec, err := parseBody(req.Body, sch)
		if err != nil {
			return i, fmt.Errorf("verify key %d: %w", req.Key, err)
		}
		want, err := ref.PredictOne(rec)
		if err != nil {
			return i, fmt.Errorf("verify key %d: reference predict: %w", req.Key, err)
		}
		var got wireAnswer
		if err := postJSON(front+"/v1/models/"+req.Deployment+"/predict", req.Body, &got); err != nil {
			return i, fmt.Errorf("verify key %d: %w", req.Key, err)
		}
		if got.Model != req.Deployment {
			return i, fmt.Errorf("verify key %d: answered by %q, want %q", req.Key, got.Model, req.Deployment)
		}
		a, b := got.Outputs, want
		if w.Precision == "f32" {
			a, b = decisions(a), decisions(b)
		}
		// Compare the wire forms: omitted and empty fields are the same
		// answer, and float64 survives the JSON round trip exactly.
		ja, _ := json.Marshal(a) // model.Output always marshals
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			return i, fmt.Errorf("verify key %d on %s: served output differs from in-process PredictOne\n served: %s\n wanted: %s",
				req.Key, req.Deployment, ja, jb)
		}
	}
	return len(reqs), nil
}

// postJSON POSTs body and decodes the 200 response into v (nil
// discards it).
func postJSON(url string, body []byte, v any) error {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error detail
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
