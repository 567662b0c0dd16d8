package search

// ScanRef exposes the linear-scan reference to the external test package,
// whose benches compare it against Engine.Search.
type ScanRef = scanRef

// NewScanRef returns a scan reference over e with an empty vector cache.
func NewScanRef(e *Engine) *ScanRef { return newScanRef(e) }

// Search ranks factID's pool by linear scan; see scanRef.
func (s *ScanRef) Search(factID, query string, n int) ([]SERPItem, error) {
	return s.search(factID, query, n)
}
