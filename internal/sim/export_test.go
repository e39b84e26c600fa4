package sim

// PendingEvents is the number of planned changes and timers pending on s.
func PendingEvents(s *Sim) int { return len(s.planned) + len(s.timers) }

// ClusterFloorW is clusterFloorW, for the external tests.
var ClusterFloorW = clusterFloorW
