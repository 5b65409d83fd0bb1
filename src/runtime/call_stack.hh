/**
 * @file
 * Shadow call stack and function-name registry.
 *
 * The paper logs call stacks around metric-extreme crossings
 * (Section 2.2).  Our substitution for x86 stack unwinding is a
 * shadow stack of function ids maintained by FnEnter/FnExit events.
 */

#ifndef HEAPMD_RUNTIME_CALL_STACK_HH
#define HEAPMD_RUNTIME_CALL_STACK_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace heapmd
{

/** Maps function names to dense FnIds and back. */
class FunctionRegistry
{
  public:
    /** Intern @p name, returning its id (idempotent). */
    FnId intern(const std::string &name);

    /**
     * Name of @p fn; "<fn#N>" when unregistered (including the
     * kNoFunction sentinel), so callers can render ids from foreign
     * or truncated registries without crashing.
     */
    std::string name(FnId fn) const;

    /** True when @p fn was interned into this registry. */
    bool contains(FnId fn) const { return fn < names_.size(); }

    /** Number of interned functions. */
    std::size_t size() const { return names_.size(); }

    /** Every interned name, indexed by FnId. */
    const std::vector<std::string> &names() const { return names_; }

  private:
    std::vector<std::string> names_;
    std::unordered_map<std::string, FnId> ids_;
};

/** Shadow stack of function ids. */
class CallStack
{
  public:
    /** Record entry into @p fn. */
    void push(FnId fn) { frames_.push_back(fn); }

    /**
     * Record exit from @p fn.  Unbalanced exits are tolerated (the
     * instrumented program may longjmp): frames are popped down to
     * and including the matching @p fn when present, else ignored.
     */
    void pop(FnId fn);

    /** Innermost function, or kNoFunction when empty. */
    FnId top() const;

    std::size_t depth() const { return frames_.size(); }

    bool empty() const { return frames_.empty(); }

    /**
     * Copy of the innermost @p max_frames frames, innermost first.
     * @p max_frames of 0 captures the whole stack.
     */
    std::vector<FnId> capture(std::size_t max_frames = 0) const;

    /** Drop all frames. */
    void clear() { frames_.clear(); }

  private:
    std::vector<FnId> frames_;
};

/** Render a captured stack as "inner <- mid <- outer". */
std::string formatStack(const std::vector<FnId> &frames,
                        const FunctionRegistry &registry);

} // namespace heapmd

#endif // HEAPMD_RUNTIME_CALL_STACK_HH
