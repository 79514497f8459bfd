package ids

import (
	"net/http"

	"ids/internal/vecstore"
)

// HTTP surface of the vector subsystem: POST /vector/upsert writes one
// vector through the durable update path, POST /vector/search runs an
// exact top-k query. (Hybrid graph+vector queries go through /query
// with a SIMILAR clause; these endpoints are the loader/inspection
// face.)

// VectorUpsertRequest is the /vector/upsert payload.
type VectorUpsertRequest struct {
	Store  string    `json:"store"`
	Key    string    `json:"key"`
	Vector []float32 `json:"vector"`
}

// VectorSearchRequest is the /vector/search payload. The query point
// is the stored vector of Key.
type VectorSearchRequest struct {
	Store string `json:"store"`
	Key   string `json:"key"`
	K     int    `json:"k"`
}

// VectorSearchResponse is the /vector/search response body.
type VectorSearchResponse struct {
	Hits []vecstore.Result `json:"hits"`
}

func (s *Server) handleVectorUpsert(w http.ResponseWriter, r *http.Request) {
	var req VectorUpsertRequest
	if !readJSON(w, r, &req) {
		return
	}
	res, err := s.Engine.VectorUpsert(req.Store, req.Key, req.Vector)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleVectorSearch(w http.ResponseWriter, r *http.Request) {
	var req VectorSearchRequest
	if !readJSON(w, r, &req) {
		return
	}
	hits, err := s.Engine.VectorSearch(req.Store, req.Key, req.K)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, VectorSearchResponse{Hits: hits})
}

// VectorUpsert writes one vector remotely through the durable update
// path.
func (c *Client) VectorUpsert(store, key string, vec []float32) (*UpdateResult, error) {
	var out UpdateResult
	if err := c.post("/vector/upsert", VectorUpsertRequest{Store: store, Key: key, Vector: vec}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// VectorSearch runs a remote exact top-k search anchored at a stored
// key.
func (c *Client) VectorSearch(store, key string, k int) ([]vecstore.Result, error) {
	var out VectorSearchResponse
	if err := c.post("/vector/search", VectorSearchRequest{Store: store, Key: key, K: k}, &out); err != nil {
		return nil, err
	}
	return out.Hits, nil
}
