// Fixture: replicas step one after another on the simulation thread.
#include <vector>

void
stepAll(std::vector<int> &clocks)
{
    for (int &clock : clocks)
        ++clock;
}
