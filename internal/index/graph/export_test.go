package graph

// RefBeamSearch lets the tests of package graph_test, which may import
// the index families built on this package, hold them to the oracle.
var RefBeamSearch = refBeamSearch
