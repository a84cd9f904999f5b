"""Traffic generation: attackers, scanners, benign clients, and the
scenario builders that assemble full measurement months.
"""
