package core

// IdleSkips returns how many core ticks Step credited instead of
// executing.
func (s *System) IdleSkips() uint64 { return s.idleSkips }
