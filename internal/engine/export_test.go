package engine

import "soarpsme/internal/rete"

// SetBeforeUpdate installs f to see each run-time addition's AddInfo just
// before its state update runs, with working memory as the update reads it.
func (e *Engine) SetBeforeUpdate(f func(info *rete.AddInfo)) { e.beforeUpdate = f }
