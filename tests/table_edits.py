"""One edit of a character table for the mutation tests."""


def repoint(table, name, label, value, setattr=setattr):
    """Point the cell of character `name` at class `label` of `table` at
    the stored `value`, through copies of the table's values and grid, so
    every Gram reads the changed cell.  Pass a monkeypatch's `setattr` to
    undo the edit of a cached table after the test."""
    grid = table.grid.copy()
    grid[table.by_name[name].row, table.index[label]] = len(table.values)
    grid.flags.writeable = False
    setattr(table, "values", table.values + (value,))
    setattr(table, "grid", grid)
