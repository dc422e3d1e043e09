#pragma once

#include "ir/tac.h"

namespace amdrel::minic {

/// Classic scalar cleanups over the lowered TAC, run to a fixed point:
/// constant folding (2+3 -> 5), copy propagation (y = x; use(y) ->
/// use(x)), algebraic simplification (x*1, x+0, x<<0, x*0, x-x, ...) and
/// dead-code elimination (defs of never-read registers). All rewrites are local to a basic block except dead-code elimination,
/// which uses whole-program register read counts (registers cannot alias,
/// so a never-read register's definitions are all dead). Stores and
/// terminators are never removed.
///
/// The optimizer tightens the naive lowering (fewer kConst/kCopy
/// artifacts, pre-folded address arithmetic), which sharpens the static
/// weights the analysis step computes — the same effect the paper gets
/// from running SUIF's scalar passes before its own tools.
///
/// Returns the total number of rewrites applied.
int optimize(ir::TacProgram& program);

}  // namespace amdrel::minic
