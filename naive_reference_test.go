package specqp

// naiveQuery is the exhaustive reference the oracles compare engines against:
// every relaxed query evaluated completely, merged with max-score dedup, and
// cut to the top k (exec.Naive). It reads the engine's own graph, so it sees
// the same layout and the same live mutations the engine's modes see. It is
// a test instrument, not a served mode: the engine answers only through its
// planned operator modes.
func naiveQuery(e *Engine, q Query, k int) Result { return e.exec.Naive(q, k) }
