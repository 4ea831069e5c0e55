package obs

// ReleasesExamined builds the dependency graph of events and reports how
// many recorded releases its grant lookups read.
func ReleasesExamined(events []Event) int { return newGraph(events).examined }
