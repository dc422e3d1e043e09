#pragma once

#include "minic/ast.h"

namespace amdrel::minic {

/// Semantic checks for a parsed MiniC program. Throws Error (with source
/// location) on the first violation:
///  * undeclared / redeclared identifiers, const violations;
///  * scalar/array misuse, wrong index arity, bad array arguments;
///  * unknown callees, arity mismatches, void calls used as values;
///  * break/continue outside loops, return-value mismatches;
///  * recursion (direct or mutual) — MiniC inlines every call, so the
///    call graph must be acyclic;
///  * when `require_main` is set, a function `main` must exist and take
///    no parameters (the whole-program entry the methodology analyzes).
///
/// check_program is MiniC's only name resolver, with C's lexical scoping:
/// a function body sees its own parameters and locals, then the globals.
/// It numbers every declaration (global, parameter, local) with a dense
/// slot in [0, Program::slot_count) and records the result on the AST:
///  * `Stmt::slot` of each kDecl and `ParamDecl::slot` of each parameter;
///  * `Expr::slot` of each kVarRef and kIndex (identifiers, index bases,
///    assignment targets and array arguments): the declaration it names;
///  * `Expr::slot` of each kCall: the callee's index in `functions`;
///  * `Program::main_index`: main's index in `functions`, or -1.
/// lower() reads only these; it resolves no names of its own.
void check_program(Program& program, bool require_main = true);

}  // namespace amdrel::minic
