package record

// Batch is one column-major batch of rows: Cols[c][r] is the value of
// Columns[c] at batch row r, nil for SQL NULL. The OLAP layer's scans stream
// it and federated connectors hand it over, so a batch reaches the SQL engine
// as the segment kernels produced it. Producers recycle the backing arrays: a
// batch is valid only until its iterator's following Next or Close call.
type Batch struct {
	Columns []string
	Cols    [][]any
	Len     int
}

// Row copies batch row r into a fresh row slice, for consumers whose rows
// must outlive the batch.
func (b *Batch) Row(r int) []any {
	row := make([]any, len(b.Cols))
	for c := range b.Cols {
		row[c] = b.Cols[c][r]
	}
	return row
}
