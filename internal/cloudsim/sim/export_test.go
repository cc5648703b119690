package sim

import "time"

// Start reports where the cursor began.
func (c *Cursor) Start() time.Time { return c.start }
