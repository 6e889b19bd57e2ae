package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sciborq/internal/wire"
)

// reply is one answer, decoded the same way from either transport so
// that the checks and the HTTP/wire comparison see one shape.
type reply struct {
	scalars map[string]float64            // one-row aggregate result
	groups  map[string]map[string]float64 // GROUP BY key -> column -> value
	rows    int                           // projection row count
	ra      []float64                     // projection ra column (wire)
	bounded *boundedReply
	queueNs int64
}

type boundedReply struct {
	Layer      string         `json:"layer"`
	Exact      bool           `json:"exact"`
	BoundMet   bool           `json:"bound_met"`
	PromisedNs int64          `json:"promised_ns"`
	Estimates  []estimateJSON `json:"estimates"`
	Trail      []trailJSON    `json:"trail"`
}

type estimateJSON struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	HalfWidth float64 `json:"half_width"`
	RelError  float64 `json:"rel_error"`
	Exact     bool    `json:"exact"`
}

type trailJSON struct {
	Layer     string `json:"layer"`
	Rows      int    `json:"rows"`
	ElapsedNs int64  `json:"elapsed_ns"`
}

func (b *boundedReply) estimate(name string) (estimateJSON, bool) {
	for _, e := range b.Estimates {
		if e.Name == name {
			return e, true
		}
	}
	return estimateJSON{}, false
}

// httpClient speaks the /query JSON API over one keep-alive connection.
type httpClient struct {
	url string
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPClient(addr string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{url: "http://" + addr + "/query", c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

type httpResponse struct {
	QueueNs int64         `json:"queue_ns"`
	Bounded *boundedReply `json:"bounded"`
	Exact   *struct {
		Columns   []string   `json:"columns"`
		Rows      [][]string `json:"rows"`
		RowCount  int        `json:"row_count"`
		Truncated bool       `json:"truncated"`
	} `json:"exact"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (h *httpClient) query(sql string) (*reply, error) {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := io.Copy(&h.buf, resp.Body); err != nil {
		return nil, err
	}
	var hr httpResponse
	if err := json.Unmarshal(h.buf.Bytes(), &hr); err != nil {
		return nil, fmt.Errorf("http: decode: %w", err)
	}
	if hr.Error != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %+v", resp.StatusCode, hr.Error)
	}
	rep := &reply{queueNs: hr.QueueNs, bounded: hr.Bounded}
	if ex := hr.Exact; ex != nil {
		if ex.Truncated {
			return nil, fmt.Errorf("http: result truncated at %d of %d rows", len(ex.Rows), ex.RowCount)
		}
		rep.rows = ex.RowCount
		if err := rep.fillAggregates(ex.Columns, len(ex.Rows), func(i, k int) (string, float64, error) {
			s := ex.Rows[i][k]
			v, err := strconv.ParseFloat(s, 64)
			return s, v, err
		}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// fillAggregates reads a one-row aggregate result, or a GROUP BY result
// whose first column is the group key. Projections (an objID column)
// are left to the caller.
func (r *reply) fillAggregates(cols []string, rows int, cell func(i, k int) (string, float64, error)) error {
	if len(cols) == 0 || cols[0] == "objID" {
		return nil
	}
	if cols[0] == "type" {
		r.groups = map[string]map[string]float64{}
		for i := 0; i < rows; i++ {
			key, _, _ := cell(i, 0)
			g := map[string]float64{}
			for k := 1; k < len(cols); k++ {
				_, v, err := cell(i, k)
				if err != nil {
					return err
				}
				g[cols[k]] = v
			}
			r.groups[key] = g
		}
		return nil
	}
	if rows != 1 {
		return fmt.Errorf("aggregate result has %d rows", rows)
	}
	r.scalars = map[string]float64{}
	for k, c := range cols {
		_, v, err := cell(0, k)
		if err != nil {
			return err
		}
		r.scalars[c] = v
	}
	return nil
}

// wireClient is one binary-protocol session with the box statement
// prepared for rebinding.
type wireClient struct {
	c    *wire.Client
	prep *wire.Stmt
}

func newWireClient(addr string) (*wireClient, error) {
	c, err := wire.Dial(addr, "")
	if err != nil {
		return nil, err
	}
	st, err := c.Prepare(preparedBase)
	if err != nil {
		c.Close()
		return nil, err
	}
	if st.NumParams != 4 {
		c.Close()
		return nil, fmt.Errorf("wire: prepared box statement takes %d literals, want 4", st.NumParams)
	}
	return &wireClient{c: c, prep: st}, nil
}

func (w *wireClient) close() { w.c.Close() }

func (w *wireClient) run(s *stmt) (*reply, error) {
	var (
		resp *wire.Response
		err  error
	)
	if s.lits != nil {
		resp, err = w.c.Execute(w.prep, s.lits...)
	} else {
		resp, err = w.c.Query(s.sql)
	}
	if err != nil {
		return nil, err
	}
	return fromWire(resp)
}

func fromWire(resp *wire.Response) (*reply, error) {
	rep := &reply{queueNs: resp.QueueNs}
	if b := resp.Bounded; b != nil {
		br := &boundedReply{Layer: b.Layer, Exact: b.Exact, BoundMet: b.BoundMet, PromisedNs: b.PromisedNs}
		for _, e := range b.Estimates {
			br.Estimates = append(br.Estimates, estimateJSON{Name: e.Name, Value: e.Value,
				HalfWidth: e.HalfWidth, RelError: e.RelError, Exact: e.Exact})
		}
		for _, t := range b.Trail {
			br.Trail = append(br.Trail, trailJSON{Layer: t.Layer, Rows: int(t.Rows), ElapsedNs: t.ElapsedNs})
		}
		rep.bounded = br
		return rep, nil
	}
	ex := resp.Exact
	if ex == nil {
		return rep, nil
	}
	rep.rows = ex.NumRows()
	cols := make([]string, len(ex.Cols))
	for i, c := range ex.Cols {
		cols[i] = c.Name
	}
	if len(cols) > 0 && cols[0] == "objID" {
		for i, c := range cols {
			if c == "ra" {
				rep.ra = ex.Blocks[i].F64
			}
		}
		return rep, nil
	}
	err := rep.fillAggregates(cols, rep.rows, func(i, k int) (string, float64, error) {
		b := ex.Blocks[k]
		switch b.Type {
		case wire.TypeFloat64:
			return "", b.F64[i], nil
		case wire.TypeInt64:
			return "", float64(b.I64[i]), nil
		case wire.TypeString:
			return b.Str[i], 0, nil
		}
		return "", 0, fmt.Errorf("wire: unexpected column type %d", b.Type)
	})
	return rep, err
}
