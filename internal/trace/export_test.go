package trace

// NewColumnarWriterSize is NewColumnarWriter with blocks of size events,
// for tests that need multi-block streams on small traces.
var NewColumnarWriterSize = newColumnarWriter

// ColBlockSize is the columnar writer's block size.
const ColBlockSize = colBlockSize
