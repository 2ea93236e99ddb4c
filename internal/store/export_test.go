package store

// Test helpers for the external tests of this package, which serve files
// through internal/server and so cannot be in package store.
var (
	MaintainedFile  = maintainedFile
	UnorderedPoints = unorderedPoints
)
