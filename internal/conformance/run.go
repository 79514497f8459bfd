package conformance

import (
	"errors"
	"fmt"

	"ids/internal/mpp"
	"ids/internal/sparql"
)

// Taxonomy buckets. Unsupported features use the compound form
// "unsupported-feature/<kw>" so the report separates, say, MINUS from
// property paths. Classification is structural — errors.As on
// *sparql.Error, errors.Is on mpp.ErrPanic — never message matching.
const (
	BucketOK          = "ok"
	BucketParseError  = "parse-error"
	BucketPlanError   = "plan-error"
	BucketWrongAnswer = "wrong-answer"
	BucketCrash       = "crash"

	unsupportedPrefix = "unsupported-feature/"
)

// Outcome is the classified result of one query.
type Outcome struct {
	Query    Query  `json:"query"`
	Bucket   string `json:"bucket"`
	Priority string `json:"priority,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// priorityFor ranks an outcome for the burn-down list. Crashes and
// engine divergence are P0 regardless of what was expected; any other
// query landing outside its expected bucket is P1 (the harness or the
// engine is wrong about the dialect); expected rejections are P3
// book-keeping.
func priorityFor(expect, bucket string) string {
	switch {
	case bucket == BucketCrash || bucket == BucketWrongAnswer:
		return "P0"
	case bucket != expect:
		return "P1"
	case bucket == BucketOK:
		return ""
	default:
		return "P3"
	}
}

// Run executes one query through parse → plan → execute on the engine,
// checks the answer against the reference evaluator's, and buckets the
// outcome. A panic anywhere in the pipeline —
// including one recovered into an mpp rank error — is a crash, never
// a test failure, so the sweep keeps going and reports totals.
func (w *World) Run(q Query) (o Outcome) {
	o = Outcome{Query: q}
	defer func() {
		if rec := recover(); rec != nil {
			o.Bucket = BucketCrash
			o.Detail = fmt.Sprintf("panic: %v", rec)
		}
		o.Priority = priorityFor(q.Expect, o.Bucket)
	}()

	parsed, err := sparql.Parse(q.Text)
	if err != nil {
		var se *sparql.Error
		if errors.As(err, &se) && se.Code == sparql.ErrUnsupported {
			o.Bucket = unsupportedPrefix + se.Feature
		} else {
			o.Bucket = BucketParseError
		}
		o.Detail = err.Error()
		return o
	}

	res, err := w.Engine.Query(q.Text)
	if errors.Is(err, mpp.ErrPanic) {
		o.Bucket = BucketCrash
		o.Detail = err.Error()
		return o
	}
	if err != nil {
		// Parsed, but rejected downstream of the front end (planner
		// validation, KNN space checks, ...): the plan-error bucket.
		// What the engine refuses, the reference is not asked about.
		o.Bucket = BucketPlanError
		o.Detail = err.Error()
		return o
	}
	want, err := w.Ref.Eval(parsed)
	if err != nil {
		o.Bucket = BucketWrongAnswer
		o.Detail = fmt.Sprintf("the engine answered what the reference rejects: %v", err)
		return o
	}
	if diff := want.Diff(res.Vars, w.Engine.Strings(res)); diff != "" {
		o.Bucket = BucketWrongAnswer
		o.Detail = diff
		return o
	}
	o.Bucket = BucketOK
	return o
}

// RunAll sweeps the corpus and folds the outcomes into a report. The
// seed is recorded in the report so the run is reproducible from the
// markdown header alone.
func (w *World) RunAll(seed int64, qs []Query) *Report {
	rep := newReport(w.Ranks)
	rep.Seed = seed
	for _, q := range qs {
		rep.add(w.Run(q))
	}
	rep.finish()
	return rep
}
