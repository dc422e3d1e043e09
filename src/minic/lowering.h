#pragma once

#include "ir/tac.h"
#include "minic/ast.h"

namespace amdrel::minic {

/// Lowers a semantically-checked MiniC program to three-address code:
///  * every call is inlined (sema guarantees an acyclic call graph), so
///    the result is one flat program rooted at main — the single CDFG the
///    partitioning methodology analyzes;
///  * scalars live in virtual registers; only arrays touch the shared
///    data memory (kLoad/kStore), matching the platform model;
///  * multi-dimensional indexing is flattened into explicit multiply/add
///    address arithmetic, so static weights include it, as a real
///    compiler's lowering would;
///  * && and || short-circuit through the CFG like C requires, which also
///    gives the CDFG the basic-block structure a SUIF-style front-end
///    would produce.
///
/// `program` must have passed check_program, which owns name resolution
/// (see sema.h): lowering binds and reads values only through the slots
/// and callee indices sema recorded, so an inlined callee sees its own
/// names, then the globals, never a caller's local. Sema rejects
/// recursion, so each slot holds one live binding at a time. A node
/// without a recorded slot raises Error.
ir::TacProgram lower(const Program& program,
                     const std::string& program_name = "main");

}  // namespace amdrel::minic
