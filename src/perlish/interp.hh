/**
 * @file
 * The perlish tree-walking interpreter.
 *
 * Executes one op-tree node per trip through the eval loop; each node
 * execution is one virtual command. Characteristics reproduced from
 * the paper's Perl 4 measurements:
 *
 *  - the program is recompiled at startup on every run (load()), with
 *    that work accounted separately (PRECOMPILE);
 *  - fetch/decode of a command costs ~130-200 native instructions —
 *    Perl's complex internal representation (§3.2);
 *  - scalar/array accesses were resolved to slots at compile time and
 *    are cheap; associative arrays always pay a hash translation of
 *    ~200 instructions (§3.3);
 *  - string facilities (regex match/subst/split) run in large runtime
 *    routines, so text-processing programs concentrate their execute
 *    instructions in one or two commands (Figures 1-2).
 */

#ifndef INTERP_PERLISH_INTERP_HH
#define INTERP_PERLISH_INTERP_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "perlish/compiler.hh"
#include "perlish/hash_table.hh"
#include "perlish/optree.hh"
#include "perlish/value.hh"
#include "trace/execution.hh"
#include "vfs/vfs.hh"

namespace interp::perlish {

/** The interpreter. load() compiles; run() walks the tree. */
class Interp
{
  public:
    Interp(trace::Execution &exec, vfs::FileSystem &fs);

    /** Compile @p source (precompile work is emitted). */
    void load(std::string_view source,
              const std::string &filename = "<script>");

    struct RunResult
    {
        bool exited = false; ///< ran to completion / exit() / die()
        int exitCode = 0;
        uint64_t commands = 0; ///< op nodes executed
    };

    RunResult run(uint64_t max_commands = UINT64_MAX);

    trace::CommandSet &commandSet() { return commands_; }
    const Script &script() const { return script_; }

    /** Value of a named scalar, for tests. */
    const Scalar *scalarByName(const std::string &name) const;

  private:
    enum class Ctrl : uint8_t { Normal, Return, Last, Next, Exit };

    struct FileHandle
    {
        int fd = -1;
        bool eof = false;
    };

    struct LocalSave
    {
        int kind; ///< 0 scalar, 1 array
        int slot;
        Scalar scalar;
        List array;
    };

    // Evaluation.
    Scalar eval(const OpNode &node);
    void evalList(const OpNode &node, List &out);
    Scalar *lvalueSlot(const OpNode &node);

    // Cost-emission helpers.
    void fetchDecode(const OpNode &node, trace::CommandId id);
    void chargeStringTouch(size_t chars);
    void chargeHashAccess(const std::string &key, int chain_steps,
                          const void *bucket_addr);
    void chargeRegexSteps(uint64_t steps);
    void chargeCoercion(const Scalar &value);
    void kernelWrite(int fd, const std::string &text);
    std::string readLine(const std::string &handle);

    // Builtin implementations.
    Scalar doSprintf(const OpNode &node);

    trace::Execution &exec;
    vfs::FileSystem &fs;
    Script script_;
    trace::CommandSet commands_;
    std::array<trace::CommandId, (size_t)Opc::NumOps> opCommand{};

    std::vector<Scalar> scalars;
    std::vector<List> arrays;
    std::vector<HashTable> hashes;
    std::array<Scalar, 10> captures; ///< $0(=$&), $1..$9
    std::map<std::string, FileHandle> handles;
    std::vector<LocalSave> localStack;

    Ctrl ctrl = Ctrl::Normal;
    Scalar returnValue;
    int exitCode = 0;
    uint64_t commandBudget = UINT64_MAX;
    uint64_t commandsRun = 0;
    int callDepth = 0;

    // Interpreter code regions. Each op has its own handler region
    // inside the giant eval switch (Perl 4's eval.c), which is what
    // gives Perl its 32-64 KB instruction working set (Figure 4).
    std::array<trace::RoutineId, (size_t)Opc::NumOps> rOp{};
    trace::RoutineId rEval;
    trace::RoutineId rArith;
    trace::RoutineId rString;
    trace::RoutineId rHash;
    trace::RoutineId rArray;
    trace::RoutineId rRegexec;
    trace::RoutineId rSub;
    trace::RoutineId rIo;
    trace::RoutineId rKernel;
    trace::RoutineId rMagic;
};

} // namespace interp::perlish

#endif // INTERP_PERLISH_INTERP_HH
