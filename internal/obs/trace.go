package obs

// SpanReport is the JSON form of a query's span tree: a root stage, its
// duration, integer annotations (probe counts, visited nodes, ...),
// string tags, and the child stages in execution order. The executor
// renders it from a query's record (executor.Record.Trace).
type SpanReport struct {
	Stage         string            `json:"stage"`
	DurationNanos int64             `json:"duration_ns"`
	Annotations   map[string]int64  `json:"annotations,omitempty"`
	Tags          map[string]string `json:"tags,omitempty"`
	Children      []SpanReport      `json:"children,omitempty"`
}
