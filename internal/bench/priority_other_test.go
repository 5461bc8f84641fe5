//go:build !linux

package bench

// lowerPriority is a no-op off Linux.
func lowerPriority() {}
