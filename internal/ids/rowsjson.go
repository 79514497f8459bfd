package ids

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/obs"
)

// The /query response is written once, from dictionary IDs: the small
// envelope fields go through encoding/json, the rows — all of a large
// answer's bytes — are appended cell by cell in their JSON-escaped
// display form (appendCell) and flushed to the connection in bounded
// chunks. No [][]string and no whole-body buffer ever exists on the
// server. The wire contract is decoded equality: a client that
// unmarshals the body into QueryResponse gets exactly the rows
// Engine.Strings returns, in exactly the envelope json.Marshal of a
// QueryResponse would carry. The client's scanner (rowsdecode.go)
// mirrors this writer: a format change here must change it too.

// rowsChunk bounds how many encoded bytes accumulate before a flush to
// the writer: large enough that a 1.6 MB answer costs ~50 writes, small
// enough that the pooled buffers stay cache-sized.
const rowsChunk = 32 << 10

var rowsBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, rowsChunk+4096)
	return &b
}}

// queryResponseHead and queryResponseTail are QueryResponse's fields
// before and after "rows", tag for tag (TestQueryResponseEnvelope holds
// the three in step).
type queryResponseHead struct {
	QID         string   `json:"qid"`
	TraceParent string   `json:"traceparent,omitempty"`
	Vars        []string `json:"vars"`
}

type queryResponseTail struct {
	Makespan     float64            `json:"makespan_seconds"`
	Phases       map[string]float64 `json:"phases"`
	Plan         string             `json:"plan"`
	WallTime     float64            `json:"wall_seconds"`
	TraceID      string             `json:"trace_id,omitempty"`
	Fingerprint  string             `json:"fingerprint,omitempty"`
	TailRetained bool               `json:"tail_retained,omitempty"`
	TailReason   string             `json:"tail_reason,omitempty"`
	Trace        *obs.QueryTrace    `json:"trace,omitempty"`
}

// writeQueryResponse writes resp as the 200 response body, taking the
// "rows" member from rows, decoded through terms, instead of resp.Rows
// (500 if the envelope does not marshal; nothing of the answer has been
// sent by then).
func writeQueryResponse(w http.ResponseWriter, terms dict.Terms, resp *QueryResponse, rows [][]expr.Value) error {
	head, err := json.Marshal(queryResponseHead{resp.QID, resp.TraceParent, resp.Vars})
	var tail []byte
	if err == nil {
		tail, err = json.Marshal(queryResponseTail{resp.Makespan, resp.Phases, resp.Plan, resp.WallTime,
			resp.TraceID, resp.Fingerprint, resp.TailRetained, resp.TailReason, resp.Trace})
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := rowsBufPool.Get().(*[]byte)
	// {head…,"rows":[…],tail…}\n — both halves are non-empty objects.
	buf := append((*bp)[:0], head[:len(head)-1]...)
	buf = append(buf, `,"rows":`...)
	buf, err = appendRowsJSON(w, buf, terms, rows)
	if err == nil {
		buf = append(buf, ',')
		buf = append(buf, tail[1:]...)
		buf = append(buf, '\n')
		_, err = w.Write(buf)
	}
	*bp = buf[:0]
	rowsBufPool.Put(bp)
	return err
}

// appendRowsJSON appends rows to buf as a JSON array of arrays of
// strings ("[]" when empty), writing buf out to w and starting it over
// whenever it passes rowsChunk. It returns the unwritten remainder.
func appendRowsJSON(w io.Writer, buf []byte, terms dict.Terms, rows [][]expr.Value) ([]byte, error) {
	buf = append(buf, '[')
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendCell(buf, terms, v, true)
		}
		buf = append(buf, ']')
		if len(buf) >= rowsChunk {
			if _, err := w.Write(buf); err != nil {
				return buf[:0], err
			}
			buf = buf[:0]
		}
	}
	return append(buf, ']'), nil
}
