package hw

// Block-level charge fast path.
//
// accessData and fetchCode charge one cache access per line spanned; bulk
// operations (payload copies, TouchCode over multi-KB code paths) hit the
// same L1 sets in ascending line order, making Cache.Access the hottest
// function in the whole simulator. With the block charge enabled, each
// per-page chunk issues one Cache.AccessRange call instead of a per-line
// loop. AccessRange is exactly state-equivalent to the loop (see cache.go),
// so simulated clocks, counters, LRU stamps, and eviction decisions are
// byte-identical either way; only host wall-clock changes.
//
// The toggle rides the superblock flag (skybench -superblock on|off) and
// is snapshotted per CPU at machine construction.

// blockCharge gates the block-level charge fast path in machines
// constructed afterwards.
var blockCharge = true

// SetBlockCharge enables or disables block-level cache charging for
// machines constructed afterwards, returning the previous setting.
func SetBlockCharge(on bool) bool {
	prev := blockCharge
	blockCharge = on
	return prev
}
