/**
 * @file
 * Deliberately broken header used by the
 * tools.carbonx_lint_detects_profile_phase_violations ctest
 * (WILL_FAIL) to prove the profile-phase rule bites. Every
 * CARBONX_SCOPE call below violates the rule in a different way;
 * the file carries a proper include guard so only the new rule
 * fires. Never include this from real code — it is linted, not
 * compiled.
 */

#ifndef CARBONX_TESTS_LINT_FIXTURES_PROFILE_PHASE_VIOLATIONS_H
#define CARBONX_TESTS_LINT_FIXTURES_PROFILE_PHASE_VIOLATIONS_H

namespace carbonx_lint_fixture
{

inline void
phaseViolations(const char *dynamic_name)
{
    CARBONX_SCOPE("fixture/phase"); // first use: fine
    CARBONX_SCOPE("fixture/phase"); // profile-phase: duplicate
    CARBONX_SCOPE(dynamic_name);    // profile-phase: not a literal
    CARBONX_SCOPE("");              // profile-phase: empty name
}

} // namespace carbonx_lint_fixture

#endif // CARBONX_TESTS_LINT_FIXTURES_PROFILE_PHASE_VIOLATIONS_H
